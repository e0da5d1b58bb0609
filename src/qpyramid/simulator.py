"""Dense statevector engine: circuit plans, unitary/diagonal extraction, sampling.

Amplitude arrays are complex128 of length 2^n with qubit 0 as the most
significant bit of the basis index.  A circuit runs as a list of ops: one
Fourier op per block that is exactly `build_qft(n)` or its inverse over the
full width (a near miss runs gate by gate), one diagonal op per run of
phase-type gates, an in-place butterfly per Hadamard, one data movement per
run of X or same-control CX gates, and one per controlled swap; a Swap gate
only relabels qubits.  A run of phase gates between two equal same-control
CX runs that it does not touch, such as the QATE payload in its reflection
shell, is one mirrored diagonal op instead of three ops, and a diagonal op
right after it merges into one right before it, dropping each angle that
sums to a multiple of 2 pi, so a Trotter substep in either mode runs as
five ops: diagonal, Fourier, mirrored payload, Fourier, diagonal.  Ops act
on a rank-n tensor view (one axis per qubit plus a trailing batch axis), so
the same code drives single states, column-batched unitaries and the basis
labels that `extract_diagonal` tracks.  Results equal gate-by-gate
application to rounding, not bit for bit.

A Fourier op is one in-place numpy FFT below `_SPLIT_FOURIER_MIN_QUBITS`
and two in-place passes of short batched FFTs from there on (see
`_fourier`).  A split op on natural input leaves the state in a rotated
qubit layout, and one on rotated input brings it back.  `_compile` keeps
one map from logical qubits to memory axes, which Swap gates and split
ops change, and compiles every op onto the axes it maps to; one transpose
restores natural order only before a Fourier op that needs it and at the
end of a plan.  No op allocates a state-size buffer that becomes the
state: `Plan.apply` updates the array it is given in place and copies
nothing.  Copies are the caller's: `run` copies its input state once,
`extract_unitary` and `extract_diagonal` hand over the identity or all-ones
array they allocate, and a Trotter loop drives one buffer through every
substep.

`compile_circuit` validates and compiles a circuit once into an immutable
`Plan` that holds each op's finished tables: the phase tables of a diagonal
op and the twiddle factors of a split Fourier op, and `Plan.apply` runs
them.  `run` takes a `Plan` or a `Circuit`; it keeps the plan it compiles
for a `Circuit` on the circuit itself and reuses it while the circuit still
equals the plan's snapshot, so a loop of `run` calls compiles once.
`extract_unitary` and `extract_diagonal` run a plan of their own, so every
reading of a circuit is one `compile_circuit`.  A diagonal op's table
covers the qubits its terms touch and broadcasts over the rest; an op of
one-qubit phases over two or more qubits gets two small Kronecker factor
tables instead.

Randomness comes from numpy's PCG64 via `RandomSource`; a seed fixes the
stream of draws.  The draws read a state's probabilities, whose bits are bound
to the platform: `_phase_table` multiplies in long double (x87 80-bit on x86,
plain double elsewhere), and numpy's SIMD complex multiply is not commutative
bit for bit, while its temporary elision picks the operand order by array
size.  Sampled outputs are byte-identical on one platform and numpy build
only, and the byte goldens of the tests fail on others.  Norms and inner
products are numpy's pairwise sums, not BLAS reductions, whose bits depend
on the BLAS thread count.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .circuit import PHASE_KINDS, Circuit, CircuitError, Gate, GateKind, InvalidWidth, build_qft, exact_int, validate

_SQRT2_INV = 1.0 / math.sqrt(2.0)
NORM_TOL = 1e-10
UNITARY_MAX_QUBITS = 12
# Narrowest Fourier op run as two passes of short FFTs.  From 2^13 entries a
# one-call FFT's two state-size scratch arrays pass glibc's 128 KiB mmap
# threshold and are faulted in afresh; the split was faster from n = 13 on
# and slower below it (one CPU, numpy 2.4: 123 vs 136 us at n = 13, 60 vs
# 55 us at n = 12).
_SPLIT_FOURIER_MIN_QUBITS = 13


class WidthTooLarge(CircuitError):
    """Full-unitary extraction requested beyond the resource guard."""


class NotDiagonal(CircuitError):
    """Diagonal extraction requested for a circuit with off-diagonal weight."""


class NotInPlace(ValueError):
    """An array that `Plan.apply` cannot update in place."""


@dataclass
class StateVector:
    """Unit-norm complex amplitudes over 2^n basis states (qubit 0 = MSB)."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.n_qubits = exact_int(self.n_qubits, InvalidWidth, "n_qubits", low=0)
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        if self.amplitudes.shape[0] != 1 << self.n_qubits:
            raise InvalidWidth(
                f"expected {1 << self.n_qubits} amplitudes for {self.n_qubits} qubits, got {self.amplitudes.shape[0]}"
            )
        # only a tolerance reads this sum, so it need not be `_norm`'s
        # pairwise one; einsum runs no BLAS reduction and no temporary
        flat = np.ascontiguousarray(self.amplitudes).view(np.float64)
        norm = math.sqrt(np.einsum("i,i->", flat, flat))
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 by more than {NORM_TOL}")

    @staticmethod
    def zero_state(n_qubits: int) -> "StateVector":
        return StateVector.basis_state(n_qubits, 0)

    @staticmethod
    def basis_state(n_qubits: int, index: int) -> "StateVector":
        amps = np.zeros(1 << exact_int(n_qubits, InvalidWidth, "n_qubits", low=0), dtype=np.complex128)
        index = exact_int(index, ValueError, "index", low=0)
        if index >= amps.shape[0]:
            raise ValueError(f"index must be in [0, {amps.shape[0]}), got {index}")
        amps[index] = 1.0
        return StateVector(n_qubits, amps)

    @staticmethod
    def from_amplitudes(raw) -> "StateVector":
        """The state of `raw` scaled to unit norm; its length sets the width.
        A zero or non-finite norm has no such scaling and is rejected."""
        amps = np.asarray(raw, dtype=np.complex128).reshape(-1)
        size = amps.shape[0]
        if size < 1 or size & (size - 1):
            raise InvalidWidth(f"amplitude count {size} is not a power of two")
        norm = _norm(amps)
        if not (math.isfinite(norm) and norm > 0):
            raise ValueError(f"cannot scale amplitudes of norm {norm} to unit norm")
        return StateVector(size.bit_length() - 1, amps / norm)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def norm(self) -> float:
        return _norm(self.amplitudes)


def _norm(amplitudes: np.ndarray) -> float:
    """The 2-norm, summed by numpy's pairwise `np.sum` (see `inner_product`)."""
    return math.sqrt(np.sum(amplitudes.real ** 2 + amplitudes.imag ** 2))


@dataclass
class Histogram:
    """Measurement counts: counts[i] for basis index i, summing to `shots`;
    any 1-D integer (not bool) array of counts in [0, 2^63), kept as int64,
    an int64 array as given, not copied."""

    shots: int
    counts: np.ndarray

    def __post_init__(self):
        self.shots = exact_int(self.shots, ValueError, "shots", low=1)
        counts = np.asarray(self.counts)
        if counts.ndim != 1 or counts.dtype.kind not in "iu":
            raise ValueError(f"counts must be a 1-D array of integers, got {counts.dtype} of shape {counts.shape}")
        top = int(counts.max(initial=0))
        if counts.min(initial=0) < 0 or top >= 2**63:
            raise ValueError("counts must lie in [0, 2^63)")
        self.counts = counts.astype(np.int64, copy=False)
        # the int64 sum is exact unless it could reach 2^63
        total = int(self.counts.sum()) if top * counts.size < 2**63 else sum(counts.tolist())
        if total != self.shots:
            raise ValueError("histogram counts do not sum to shots")


@dataclass
class RandomSource:
    """Seeded PCG64 stream; the same seed always reproduces the same draws."""

    seed: int
    _generator: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        self.seed = exact_int(self.seed, ValueError, "seed", low=0)
        self._generator = np.random.Generator(np.random.PCG64(self.seed))

    def multinomial(self, trials: int, probabilities: np.ndarray) -> np.ndarray:
        return self._generator.multinomial(trials, probabilities)

    def binomial(self, trials: int, probability: float) -> int:
        return int(self._generator.binomial(trials, probability))


def _phase_table(qubits: list, const, linear: dict, rows: dict) -> np.ndarray:
    """const * prod_q linear[q]^b_q * prod_{q<r} rows[q][r]^(b_q b_r) over the
    bits of the ascending `qubits` (the last one least significant), from unit
    factors multiplied in long double and converted to complex128 at the end.

    Built one qubit at a time as the new most significant bit: where qubit q is
    1 the table is its lower half times linear[q] times the product of
    rows[q][r]^b_r, which is filled in by doubling, so no exponential runs over
    the table.  With x87 80-bit long double the products' error stays well
    below one complex128 rounding, so an entry is nearly always, but not
    always, the correctly rounded exponential of its angle sum: a few per
    thousand differ in the last bit, and which ones depends on the order of
    the products.  Where long double is plain double the entries are off by a
    few roundings.  So the bytes of the tables, and of every output computed
    from them, hold for this platform only.  The result is read-only.
    """
    table = np.empty(1 << len(qubits), dtype=np.clongdouble)
    table[0] = const
    size = 1
    for i in range(len(qubits) - 1, -1, -1):
        q = qubits[i]
        lower, upper = table[:size], table[size:2 * size]
        row = rows.get(q)
        if row is None:
            if q in linear:
                np.multiply(lower, linear[q], out=upper)
            else:
                upper[...] = lower
        else:
            upper[0] = linear.get(q, 1)
            block = 1
            for r in reversed(qubits[i + 1:]):
                if r in row:
                    np.multiply(upper[:block], row[r], out=upper[block:2 * block])
                else:
                    upper[block:2 * block] = upper[:block]
                block *= 2
            upper *= lower
        size *= 2
    table = table.astype(np.complex128)
    table.flags.writeable = False
    return table


def _phase_tables(n: int, terms: dict, control: int | None = None,
                  targets: frozenset = frozenset()) -> Iterator[tuple]:
    """The (index, table) pairs that `_diagonal` multiplies by to apply
    exp(i * sum of terms): `terms` maps () to a constant angle, (q,) to the
    angle of bit q, and (q, r) with q < r to that of b_q b_r.

    The op gets one read-only `_phase_table` over the qubits its terms
    touch, shaped over all n axes and the batch axis so that it broadcasts
    over the others, at index ().  An op with no pairwise term is a tensor
    product of one-qubit phases; if it touches k >= 2 qubits it gets two
    tables at the same index instead, one over the first k // 2 of its
    ascending touched qubits, with the constant, and one over the rest.
    They hold 2^floor(k/2) + 2^ceil(k/2) entries in place of 2^k, and cost
    the state one more rounding.

    With a `control`, which no term touches, the pairs apply the mirrored
    diagonal `_flip(control, targets)` . exp(i * sum of terms) .
    `_flip(control, targets)` instead: each table on the slice where
    `control` is 0, and on the slice where it is 1 the entry at the target
    bits flipped, which is the same table reversed over the target axes as a
    view.  The slices keep the control axis, over which the tables
    broadcast.
    """
    factors = np.exp(1j * np.array(list(terms.values()), dtype=np.longdouble))
    const, linear, rows = 1, {}, {}
    for key, factor in zip(terms, factors):
        if not key:
            const = factor
        elif len(key) == 1:
            linear[key[0]] = factor
        else:
            rows.setdefault(key[0], {})[key[1]] = factor
    touched = sorted(set(linear).union(rows, *rows.values()))
    parts = [(touched, const)]
    if not rows and len(touched) > 1:
        cut = len(touched) // 2
        parts = [(touched[:cut], const), (touched[cut:], 1)]
    for qubits, constant in parts:
        shape = [1] * (n + 1)  # qubits 0..n-1, then the batch axis
        for q in qubits:
            shape[q] = 2
        table = _phase_table(qubits, constant, linear, rows).reshape(shape)
        if control is None:
            yield (), table
        else:
            yield (slice(None),) * control + (slice(0, 1),), table
            yield (slice(None),) * control + (slice(1, 2),), np.flip(table, sorted(targets))


def _diagonal(tensor: np.ndarray, n: int, tables: tuple) -> None:
    """Multiply by each (index, table) pair from `_phase_tables` in place."""
    for index, table in tables:
        half = tensor[index]
        half *= table


def _hadamard(tensor: np.ndarray, n: int, q: int) -> None:
    """(lo, hi) -> ((lo + hi) / sqrt 2, (lo - hi) / sqrt 2) in place; the
    difference is the one temporary."""
    v = tensor.reshape(1 << q, 2, -1)
    lo, hi = v[:, 0], v[:, 1]
    diff = lo - hi
    lo += hi
    lo *= _SQRT2_INV
    np.multiply(diff, _SQRT2_INV, out=hi)


def _flip(tensor: np.ndarray, n: int, control: int | None, targets: frozenset) -> None:
    """Flip the target bits, where `control` is 1 if there is a control: a run
    of X gates, or of CX gates sharing their control, as one data movement."""
    if not targets:
        return
    axes = sorted(targets)
    if control is not None:
        tensor = tensor[(slice(None),) * control + (1,)]
        axes = [t - (t > control) for t in axes]
    tensor[...] = np.flip(tensor, axes)


def _permute(tensor: np.ndarray, n: int, perm: tuple) -> None:
    """Move axis perm[q] to axis q: with `_compile`'s layout map as `perm`,
    one transpose back to natural order."""
    tensor[...] = tensor.transpose(perm + (n,))


def _cswap(tensor: np.ndarray, n: int, control: int, a: int, b: int) -> None:
    """Swap the bits of qubits a and b where qubit `control` is 1, in place."""
    v = np.moveaxis(tensor, (control, a, b), (0, 1, 2))
    v[1, 0, 1], v[1, 1, 0] = v[1, 1, 0].copy(), v[1, 0, 1].copy()


def _twiddles(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The twiddle factors omega^{ab}, omega = e^{2 pi i/2^n}, at row a and
    column b of the (R, C) = (2^floor(n/2), 2^ceil(n/2)) view of a 2^n state
    index, as two read-only Kronecker factor tables over the high and low
    bits of a = h L + l, L = 2^ceil(log2(R)/2): omega^{h L b} shaped
    (R/L, 1, C, 1) and omega^{l b} shaped (1, L, C, 1).  They hold about
    2^(3n/4 + 1) entries in place of 2^n and cost the state one more
    rounding; an inverse op multiplies by their conjugates.  Every exponent
    is below 2^n and is reduced in integers to (-2^(n-1), 2^(n-1)], so every
    angle lies in (-pi, pi]."""
    size, cols = 1 << n, 1 << (n + 1) // 2
    low = 1 << (n // 2 + 1) // 2
    high = (1 << n // 2) // low
    tables = []
    for step, count, shape in ((low, high, (high, 1, cols, 1)), (1, low, (1, low, cols, 1))):
        exponents = np.multiply.outer(step * np.arange(count), np.arange(cols))
        exponents[exponents > size // 2] -= size
        table = np.exp(2j * math.pi / size * exponents).reshape(shape)
        table.flags.writeable = False
        tables.append(table)
    return tables[0], tables[1]


def _fourier(tensor: np.ndarray, n: int, inverse: bool, rotated: bool, twiddles: tuple | None) -> None:
    """The Fourier transform omega^{jk}/sqrt(2^n), omega = e^{2 pi i/2^n}
    (numpy's orthonormal `ifft`), or with `inverse` its conjugate transpose
    (`fft`), over the 2^n state index of each batch column, in place.

    Without `twiddles` it is one numpy call, whose temporaries are numpy's
    two scratch arrays of one statevector each.  With the `_twiddles` of
    width n it is Bailey's four-step FFT over the (R, C) view of the index,
    whose scratch is a few rows: length-R transforms down the columns, a
    multiply by omega^{+-ab} at row a, column b, and length-C transforms
    along the rows, all written back in place.  On natural input, j = a C +
    b, the columns go first, and output k1 + R k2 lands at row k1, column
    k2: the rotated layout, in which logical qubit q sits at axis (q +
    floor(n/2)) mod n.  On `rotated` input, j = b R + a, the rows go first
    and the output comes back in natural order.
    """
    transform = np.fft.fft if inverse else np.fft.ifft
    if twiddles is None:
        flat = tensor.reshape(1 << n, -1)
        transform(flat, axis=0, norm="ortho", out=flat)
        return
    high, low = twiddles
    rows, cols = high.shape[0] * low.shape[1], high.shape[2]
    grid = tensor.reshape(rows, cols, -1)
    first, second = (1, 0) if rotated else (0, 1)
    transform(grid, axis=first, norm="ortho", out=grid)
    factored = grid.reshape(high.shape[0], low.shape[1], cols, -1)
    for table in twiddles:
        factored *= table.conj() if inverse else table
    transform(grid, axis=second, norm="ortho", out=grid)


def _fourier_block(gates: list, start: int, n: int) -> tuple[bool, int] | None:
    """(inverse, stop) when gates[start:stop] equals the gates of
    `build_qft(n, inverse)` by value: the same kinds, qubits and bit-identical
    angles, closing swaps included.  gates[start] is a Hadamard or a Swap, the
    gates a forward and an inverse block open with."""
    inverse = gates[start].kind is GateKind.SWAP
    template = build_qft(n, inverse).gates
    stop = start + len(template)
    return (inverse, stop) if list(gates[start:stop]) == template else None


def _add_angle(terms: dict, key: tuple, angle: float) -> float:
    """Add `angle` to the term of `key` (0.0 when absent) and return the sum;
    a sum past the float range raises CircuitError."""
    total = terms[key] = terms.get(key, 0.0) + angle
    if not math.isfinite(total):
        raise CircuitError(f"phase angles on one term sum to {total}, past the float range")
    return total


def _compile(circuit: Circuit) -> list:
    """The ops of a validated circuit: a list of (kernel, args) pairs.

    A block of gates that is exactly `build_qft(n)` or `build_qft(n,
    inverse=True)` over the circuit's full width n becomes one `_fourier` op;
    a block that differs by one gate, one angle bit or its width is not
    matched and runs gate by gate.  Each maximal run of
    Phase/ControlledPhase/RotationZ gates becomes one `_diagonal` op holding
    the run's summed constant, per-qubit and pairwise angles, which
    `compile_circuit` turns into its phase tables.  Each Hadamard is a
    `_hadamard` op, a run of X gates or of CX gates with one control is a
    `_flip`, and each controlled swap a `_cswap`.  `_fold` then makes each
    `_flip`, `_diagonal`, equal `_flip` sequence whose diagonal does not
    touch the flips' control one mirrored `_diagonal` op, and merges the
    plain diagonal op after it into the one before it.

    The ops act on memory axes through one layout map: logical qubit q sits
    at axis axis[q].  A Swap gate swaps two entries of the map and emits
    nothing, so it moves no data and ends no run.  A split Fourier op on
    natural input leaves the rotated layout and one on rotated input
    restores natural order (see `_fourier`), so a QFT/inverse pair needs no
    reordering.  Before a Fourier block in any other layout, and at the end
    of a plan not in natural order, one `_permute` restores natural order.
    """
    n = circuit.n_qubits
    gates = circuit.gates
    natural = tuple(range(n))
    rotated = tuple((q + n // 2) % n for q in natural) if n >= _SPLIT_FOURIER_MIN_QUBITS else natural
    axis = list(natural)
    ops: list = []
    i = 0
    while i < len(gates):
        gate = gates[i]
        kind, qubits = gate.kind, tuple(axis[q] for q in gate.qubits)
        block = _fourier_block(gates, i, n) if kind in (GateKind.HADAMARD, GateKind.SWAP) else None
        if block is not None:
            inverse, i = block
            layout = tuple(axis)
            if layout not in (natural, rotated):
                ops.append((_permute, (layout,)))
                layout = natural
            ops.append((_fourier, (inverse, layout != natural)))
            axis = list(rotated if layout == natural else natural)
            continue
        i += 1
        last_kernel, last_args = ops[-1] if ops else (None, ())
        if kind in PHASE_KINDS:
            if last_kernel is not _diagonal:
                last_args = ({},)
                ops.append((_diagonal, last_args))
            terms = last_args[0]
            _add_angle(terms, tuple(sorted(qubits)), gate.angle)
            if kind is GateKind.ROTATION_Z:
                _add_angle(terms, (), -0.5 * gate.angle)
        elif kind is GateKind.HADAMARD:
            ops.append((_hadamard, qubits))
        elif kind in (GateKind.PAULI_X, GateKind.CONTROLLED_NOT):
            control = qubits[0] if kind is GateKind.CONTROLLED_NOT else None
            targets = frozenset()
            if last_kernel is _flip and last_args[0] == control:
                targets = ops.pop()[1][1]
            ops.append((_flip, (control, targets ^ {qubits[-1]})))
        elif kind is GateKind.SWAP:
            a, b = gate.qubits
            axis[a], axis[b] = axis[b], axis[a]
        else:
            ops.append((_cswap, qubits))
    if tuple(axis) != natural:
        ops.append((_permute, (tuple(axis),)))
    return _fold(ops)


def _fold(ops: list) -> list:
    """`ops` with each CX-ladder shell folded into one diagonal op.

    A `_diagonal` op between two equal `_flip` ops that have a control, which
    none of its terms touches, becomes one mirrored `_diagonal` op: its args
    are the terms, the control and the targets, from which `_phase_tables`
    builds the payload's tables once and mirrors them onto the control-1
    half as views.  Diagonal ops commute, so a plain `_diagonal` op right
    after a mirrored one is merged into a plain one right before it: the
    angles of each key are summed, an exact multiple of 2 pi (0.0 too) drops
    its key, and an op left with no terms is dropped.  In a Trotter substep
    the momentum ramps around the kinetic payload cancel so, to 2 pi in
    paper mode.
    """
    folded: list = []
    for kernel, args in ops:
        last_kernel, last_args = folded[-1] if folded else (None, ())
        before = folded[-2] if len(folded) > 1 else (None, ())
        if (kernel is _flip and args[0] is not None and before == (kernel, args)
                and last_kernel is _diagonal and len(last_args) == 1
                and all(args[0] not in key for key in last_args[0])):
            folded[-2:] = [(_diagonal, (last_args[0], *args))]
        elif (kernel is _diagonal and len(args) == 1 and last_kernel is _diagonal and len(last_args) == 3
              and before[0] is _diagonal and len(before[1]) == 1):
            terms = before[1][0]
            for key, angle in args[0].items():
                if math.remainder(_add_angle(terms, key, angle), 2 * math.pi) == 0.0:
                    del terms[key]
            if not terms:
                del folded[-2]
        else:
            folded.append((kernel, args))
    return folded


@dataclass(frozen=True)
class Plan:
    """A validated circuit compiled once, to run any number of times: a
    snapshot of its width, gates and global phase, and its finished ops,
    whose tables are read-only.  Gates added to the circuit later do not
    reach the plan.  Each `_diagonal` op with pairwise angles keeps one
    table over the qubits it touches, up to one statevector, for the plan's
    lifetime; an op of one-qubit phases over k >= 2 qubits keeps
    2^floor(k/2) + 2^ceil(k/2) entries.  A mirrored `_diagonal` op (see
    `_fold`) keeps only its payload's tables, over half the state or less,
    and reads them for the control-1 half through reversed views.  From
    `_SPLIT_FOURIER_MIN_QUBITS` on, the Fourier ops share one pair of
    twiddle tables of about 2^(3n/4 + 1) entries.  The ops act on memory
    axes through `_compile`'s layout map, and a plan that would end in
    another layout closes with a `_permute`, so every plan maps natural
    order to natural order.  `apply` runs the ops on an array in place."""

    n_qubits: int
    gates: tuple[Gate, ...]
    global_phase: float
    ops: tuple

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        """Apply the ops, then e^{i global_phase}, to `amplitudes` in place
        and return it: 2^n rows of any norm, with optional trailing batch
        axes.  The one executor: every run and extraction goes through it.
        It copies nothing, so a caller that keeps its input copies it first.
        An array that is not a writeable complex128 ndarray, or whose
        elements are not one strided run (so that a kernel's reshape would
        update a copy), raises NotInPlace; another row count raises
        InvalidWidth."""
        n = self.n_qubits
        if not isinstance(amplitudes, np.ndarray) or amplitudes.dtype != np.complex128:
            raise NotInPlace(f"expected a complex128 ndarray, got {getattr(amplitudes, 'dtype', type(amplitudes))}")
        if not amplitudes.flags.writeable:
            raise NotInPlace("the array is read-only")
        if amplitudes.shape[:1] != (1 << n,):
            raise InvalidWidth(f"expected {1 << n} rows for {n} qubits, got shape {amplitudes.shape}")
        try:
            tensor = np.reshape(amplitudes, -1, copy=False).reshape([2] * n + [-1])
        except ValueError:
            raise NotInPlace(f"shape {amplitudes.shape} with strides {amplitudes.strides} is not one strided run") from None
        for kernel, args in self.ops:
            kernel(tensor, n, *args)
        if self.global_phase != 0.0:
            amplitudes *= np.exp(1j * self.global_phase)
        return amplitudes


def compile_circuit(circuit: Circuit) -> Plan:
    """Validate `circuit` and compile it into a `Plan`; raises the typed
    errors of `validate`.  A `_diagonal` op's summed angles become the tuple
    of its `_phase_tables`; every `_fourier` op gets the same `_twiddles`
    from `_SPLIT_FOURIER_MIN_QUBITS` on, built when the first is reached,
    and None below."""
    validate(circuit)
    n = circuit.n_qubits
    ops, twiddles = [], None
    for kernel, args in _compile(circuit):
        if kernel is _fourier:
            if twiddles is None and n >= _SPLIT_FOURIER_MIN_QUBITS:
                twiddles = _twiddles(n)
            args = (*args, twiddles)
        elif kernel is _diagonal:
            args = (tuple(_phase_tables(n, *args)),)
        ops.append((kernel, args))
    return Plan(n, tuple(circuit.gates), circuit.global_phase, tuple(ops))


def _held_plan(circuit: Circuit) -> Plan:
    """The plan `run` keeps on `circuit`, compiled again first unless its
    snapshot still equals the circuit's width, global phase and gates."""
    plan = circuit._plan
    if plan is None or (plan.n_qubits, plan.global_phase, plan.gates) != (
            circuit.n_qubits, circuit.global_phase, tuple(circuit.gates)):
        circuit._plan = None  # the stale plan is freed before the new one is built
        plan = circuit._plan = compile_circuit(circuit)
    return plan


def run(program: Plan | Circuit, initial: StateVector) -> StateVector:
    """Apply all gates in order, then the global phase e^{i*global_phase}.
    A `Plan` from `compile_circuit` runs its held ops.  A `Circuit` runs the
    plan kept on it: the first call validates and compiles it, and a later
    call reuses that plan while the circuit's width, global phase and gates
    still equal its snapshot, so an edited circuit is never run from a stale
    plan.  The plan lives as long as the circuit.  The plan updates one copy
    of `initial`'s amplitudes in place, which the returned state holds, so
    `initial` is left unchanged."""
    plan = program if isinstance(program, Plan) else _held_plan(program)
    n = plan.n_qubits
    if n != initial.n_qubits:
        raise InvalidWidth(f"circuit width {n} != state width {initial.n_qubits}")
    return StateVector(n, plan.apply(initial.amplitudes.astype(np.complex128)))


def extract_unitary(circuit: Circuit) -> np.ndarray:
    """Full 2^n x 2^n matrix; column j is the circuit applied to basis state j.
    The circuit's plan updates the identity matrix in place, its columns
    as one batch, and nothing copies it."""
    validate(circuit)
    n = circuit.n_qubits
    if n > UNITARY_MAX_QUBITS:
        raise WidthTooLarge(f"unitary extraction capped at {UNITARY_MAX_QUBITS} qubits, got {n}")
    return compile_circuit(circuit).apply(np.eye(1 << n, dtype=np.complex128))


def extract_diagonal(circuit: Circuit) -> np.ndarray:
    """Main diagonal of a circuit that maps every basis state to itself up to
    a phase, read off its ops.

    The circuit is compiled once.  The plan's data movements (flips,
    transposes, controlled swaps) run on the basis labels 0..2^n-1 while its
    diagonal ops, mirrored ones included, are skipped; a reflection shell is
    one mirrored op and moves no label.  The circuit is diagonal if every
    label ends where it started, and the same ops applied in place to the
    all-ones vector, which is not copied, are then the diagonal.  Any
    Hadamard or Fourier op raises NotDiagonal, even a pair that cancels; use
    `extract_unitary` for such circuits.
    """
    plan = compile_circuit(circuit)
    n = plan.n_qubits
    labels = np.arange(1 << n)
    tensor = labels.reshape([2] * n + [-1])
    for kernel, args in plan.ops:
        if kernel in (_hadamard, _fourier):
            raise NotDiagonal("a Hadamard or Fourier transform maps basis states to superpositions")
        if kernel is not _diagonal:
            kernel(tensor, n, *args)
    in_place = np.array_equal(labels, np.arange(1 << n))
    del labels, tensor  # freed before the ones vector is allocated
    if not in_place:
        raise NotDiagonal("basis states are not mapped to themselves up to phase")
    return plan.apply(np.ones(1 << n, dtype=np.complex128))


def sample(state: StateVector, shots: int, rng: RandomSource) -> Histogram:
    """Multinomial draw from |amplitude|^2; deterministic given the seed."""
    shots = exact_int(shots, ValueError, "shots", low=1)
    probs = state.probabilities()
    probs = probs / probs.sum()
    return Histogram(shots, rng.multinomial(shots, probs))


def fidelity_exact(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2, clamped to 1: Cauchy-Schwarz bounds it by 1 for unit
    states, but rounding alone puts |<a|a>|^2 above 1 by an ulp or two for
    about a fifth of random unit states."""
    if a.n_qubits != b.n_qubits:
        raise InvalidWidth(f"state widths differ: {a.n_qubits} vs {b.n_qubits}")
    return min(1.0, abs(inner_product(a.amplitudes, b.amplitudes)) ** 2)


def inner_product(a: np.ndarray, b: np.ndarray) -> complex:
    """<a|b>, summed by numpy's pairwise `np.sum`.  BLAS reductions
    (`np.vdot`, `np.linalg.norm`) split the sum over their threads, so their
    bits would depend on the BLAS thread count."""
    return complex(np.sum(np.conj(a) * b))
