"""A real tournament branch predictor (the simulator's, Table IV).

Alpha-21264-style organisation: a per-PC bimodal table, a gshare table
(global history XOR PC) and a chooser table updated towards whichever
component was right.  All three tables hold two-bit saturating
counters and share the configured storage budget.

This predictor consumes the *actual* branch outcome stream during
simulation; the analytical model never sees it — it works from entropy
statistics alone, mirroring the paper's split between Sniper and RPPM.
"""

from __future__ import annotations

import numpy as np

from repro.arch.config import BranchPredictorConfig


class TournamentPredictor:
    """Stateful tournament predictor operating on (pc, outcome) pairs."""

    def __init__(self, config: BranchPredictorConfig):
        self.config = config
        entries = config.entries_per_table
        self._mask = entries - 1
        self._hist_mask = (1 << config.history_bits) - 1
        # Counters start weakly not-taken / no preference.  Byte
        # arrays: indexing one yields a plain int, where a NumPy table
        # would box every read as a NumPy scalar.
        self.bimodal = bytearray(b"\x01") * entries
        self.gshare = bytearray(b"\x01") * entries
        self.chooser = bytearray(b"\x01") * entries
        self.history = 0
        self._max = (1 << config.counter_bits) - 1
        self._thresh = 1 << (config.counter_bits - 1)

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Predict branch at ``pc``; train on ``taken``; return hit."""
        bi = pc & self._mask
        gi = (pc ^ self.history) & self._mask
        ci = pc & self._mask
        b_pred = self.bimodal[bi] >= self._thresh
        g_pred = self.gshare[gi] >= self._thresh
        use_gshare = self.chooser[ci] >= self._thresh
        pred = g_pred if use_gshare else b_pred

        # Train components.
        if taken:
            if self.bimodal[bi] < self._max:
                self.bimodal[bi] += 1
            if self.gshare[gi] < self._max:
                self.gshare[gi] += 1
        else:
            if self.bimodal[bi] > 0:
                self.bimodal[bi] -= 1
            if self.gshare[gi] > 0:
                self.gshare[gi] -= 1
        # Train chooser towards the component that was right.
        if b_pred != g_pred:
            if g_pred == taken:
                if self.chooser[ci] < self._max:
                    self.chooser[ci] += 1
            else:
                if self.chooser[ci] > 0:
                    self.chooser[ci] -= 1
        self.history = ((self.history << 1) | int(taken)) & self._hist_mask
        return pred == taken

    def run(self, pcs: np.ndarray, taken: np.ndarray) -> np.ndarray:
        """Process a stream; returns a boolean mispredict mask.

        Exactly :meth:`predict_and_update` per branch, in order, with
        the state carried between calls — so a stream split across
        calls gives the same mask as one call.  The outcome stream
        alone decides every prediction; no timing enters, which is
        why the core model resolves a whole block's branches up
        front.  The hot path of the simulator: the tables are byte
        arrays read into plain ints, and misses are gathered as
        indices and scattered into the mask once.
        """
        bimodal = self.bimodal
        gshare = self.gshare
        chooser = self.chooser
        mask = self._mask
        hist_mask = self._hist_mask
        history = self.history
        cmax = self._max
        thresh = self._thresh
        misses = []
        for i, pc, t in zip(range(len(pcs)), pcs.tolist(), taken.tolist()):
            bi = pc & mask
            gi = (pc ^ history) & mask
            b_ctr = bimodal[bi]
            g_ctr = gshare[gi]
            b_pred = b_ctr >= thresh
            g_pred = g_ctr >= thresh
            pred = g_pred if chooser[bi] >= thresh else b_pred
            if t:
                if b_ctr < cmax:
                    bimodal[bi] = b_ctr + 1
                if g_ctr < cmax:
                    gshare[gi] = g_ctr + 1
                if not pred:
                    misses.append(i)
                if b_pred != g_pred:
                    # Train the chooser towards the component that
                    # was right.
                    c = chooser[bi]
                    if g_pred:
                        if c < cmax:
                            chooser[bi] = c + 1
                    elif c > 0:
                        chooser[bi] = c - 1
            else:
                if b_ctr > 0:
                    bimodal[bi] = b_ctr - 1
                if g_ctr > 0:
                    gshare[gi] = g_ctr - 1
                if pred:
                    misses.append(i)
                if b_pred != g_pred:
                    c = chooser[bi]
                    if g_pred:
                        if c > 0:
                            chooser[bi] = c - 1
                    elif c < cmax:
                        chooser[bi] = c + 1
            history = ((history << 1) | t) & hist_mask
        self.history = history
        miss = np.zeros(len(pcs), dtype=bool)
        miss[misses] = True
        return miss

    @property
    def miss_rate_state(self) -> dict:
        """Lightweight introspection snapshot (tests/diagnostics)."""
        return {
            "history": self.history,
            "bimodal_mean": sum(self.bimodal) / len(self.bimodal),
            "gshare_mean": sum(self.gshare) / len(self.gshare),
            "chooser_mean": sum(self.chooser) / len(self.chooser),
        }
