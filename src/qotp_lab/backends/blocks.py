"""The block calls of the backend contract, in one plain implementation.

A run hands its state whole register-wide steps: a gate list, the Bell
measurement of the pairs that are due together, and a register's readout.
Every backend inherits these loops over its own ``apply_gate``, ``measure``
and ``discard``; a frame replay (``frame.FrameReplay``) takes each block as
one step.
"""

from __future__ import annotations


class BlockCalls:
    def apply_gates(self, gates) -> None:
        """Apply each ``(name, *qubits)`` of ``gates``, in order."""
        for g in gates:
            self.apply_gate(*g)

    def bell_measure(self, pairs, rng, sink=None) -> list[int]:
        """Rotate each (d, q) pair (CNOT d q, then H d) and measure d, then
        q, one pair after the other, the next pair asked of ``pairs`` only
        then; then drop every measured qubit in one ``discard``.  The bits,
        in measurement order; ``sink`` receives each probability."""
        bits, measured = [], []
        for d, q in pairs:
            self.apply_gate("CNOT", d, q)
            self.apply_gate("H", d)
            measured += (d, q)
            bits += self._read((d, q), rng, sink)
        self.discard(measured)
        return bits

    def measure_and_drop(self, ids, rng, sink=None) -> list[int]:
        """The bits of the qubits ``ids``, measured in order, each
        probability handed to ``sink``; then one ``discard`` of them."""
        bits = self._read(ids, rng, sink)
        self.discard(ids)
        return bits

    def _read(self, ids, rng, sink) -> list[int]:
        bits = []
        for q in ids:
            bit, prob = self.measure(q, rng=rng)
            bits.append(bit)
            if sink is not None:
                sink(prob)
        return bits
