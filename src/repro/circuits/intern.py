"""Interned gates: a circuit as a column of small integer ids.

The circuits POPQC optimizes are long but repetitive (an 11k-38k-gate
Table-1 instance holds a few hundred *distinct* gate values), and every
per-gate cost the driver and the workers used to pay — building a
``Gate``, flattening it into wire arrays, hashing it — was paid again
for a value the process had already seen.  A :class:`GateTable` pays it
once per distinct value: each gets a small id and a row of numpy
columns, a segment is an int32 id array, :meth:`GateTable.encoded`
gathers the canonical :class:`~repro.circuits.encoding.EncodedSegment`
of one (the packed bytes of ``encode_segment`` on the gates), and
:meth:`GateTable.ids_from_encoded` reads wire arrays back as ids.

A table is a *cache*: ids never reach a wire byte, a content-cache key
or an output, so dropping one — or using another on the far side of a
pipe — changes nothing observable.  A content-cache key of an id
segment (:meth:`GateTable.content_key`) hashes its rows' *value*
digests, filled in the first time a key is asked for, so two tables
give equal content equal keys whatever ids they chose.  The one place
ids cross a process boundary is a local claim round, and there only as
positions into a :class:`RowTable` — the round's distinct rows, shipped
beside them — so the worker needs no table and keeps none.

A table may be shared between threads (a ``popqc serve`` daemon's jobs
share one).  Rows are only ever appended: a row or a name is created
under the table's lock, with the not-there-yet check repeated inside
it, and a row's columns are filled before any map leads to its id; the
columns grow by copy-then-swap, so a reader's array always holds every
id that reader can know.  Row digests are filled under the lock too,
and published (array first, then the count of filled rows) only after
the fill.  Reads take no lock.

Ids are a key in one place: a ``popqc`` run's memo of what its oracle
answered (:func:`repro.core.popqc_rounds`), keyed by a segment's
``ids.tobytes()``.  A run's memo dies with the run; a daemon's lives
exactly as long as the shared table its keys are ids of.
"""

from __future__ import annotations

import hashlib
import threading
from operator import attrgetter
from typing import Sequence

import numpy as np

from . import encoding
from .gate import GATE_NAMES, Gate

__all__ = ["TABLE_CAP", "GateTable", "RowTable", "thread_table"]

#: Entries a long-lived table — a worker thread's, a daemon's, a client
#: connection's — may reach before it is replaced (as a whole, between
#: segments or jobs).
#: Table-1 circuits stay far below it; at ~500 bytes an entry it bounds
#: a table near 4 MB.
TABLE_CAP = 8192

#: Gates from which :meth:`GateTable.ids_from_encoded` groups equal wire
#: values in numpy before probing: grouping costs ~60 us flat, a probe
#: ~0.3 us a gate, so a 2-Omega segment probes and a whole circuit groups.
GROUP_FROM = 1024

#: What makes two gates the same gate: the by-value key of a table row.
_VALUE = attrgetter("name", "qubits", "param")


def _digest(gate: Gate) -> bytes:
    """A 128-bit digest of ``gate``'s value, independent of any table:
    the param by its exact bits, so one ulp apart is another value."""
    name, qubits, param = _VALUE(gate)
    exact = None if param is None else float(param).hex()
    value = (name, tuple(map(int, qubits)), exact)
    return hashlib.blake2b(repr(value).encode(), digest_size=16).digest()


def _narrow(arity: np.ndarray) -> bool:
    """Whether every gate acts on one or two qubits: what the gathered
    paths handle (anything else goes through the per-gate codec)."""
    return len(arity) == 0 or (arity.min() >= 1 and arity.max() <= 2)


class GateTable:
    """Distinct gate values, each with an id and a row of numpy columns.

    ``gates[i]`` is *the* ``Gate`` object of id ``i``: the one
    :meth:`gates_of` hands out for that value, so a gate an oracle
    passed through unchanged comes back to :meth:`intern` by identity.
    Three maps lead to an id: by ``id()`` of an object the table owns,
    by value for any other ``Gate``, by wire key (see
    :meth:`ids_from_encoded`) for a gate still in its encoded arrays.

    Name ids 0-3 are the base set in :data:`~repro.circuits.gate.
    GATE_NAMES` order in every table, so a row's name id is also the
    rule engine's opcode (:mod:`repro.oracles.rule_engine`).
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()  # row and name creation
        self.gates: list[Gate] = []
        self._by_object: dict[int, int] = {}
        self._by_value: dict[tuple, int] = {}
        self._by_key: dict[tuple, int] = {}
        self._names: list[str] = list(GATE_NAMES)
        self._name_ids: dict[str, int] = {n: i for i, n in enumerate(GATE_NAMES)}
        #: per id: name id, arity, first two qubits, has-param; and the param
        self._rows = np.empty((64, 5), dtype=np.int32)
        self._param = np.empty(64, dtype=np.float64)
        #: per id below ``_digested``: a digest of the row's value
        self._digests = np.empty((0, 16), dtype=np.uint8)
        self._digested = 0

    def __len__(self) -> int:
        return len(self.gates)

    @property
    def full(self) -> bool:
        """Whether a long-lived owner should start a fresh table: rows
        or names past :data:`TABLE_CAP`."""
        return max(len(self.gates), len(self._names)) > TABLE_CAP

    def intern(self, gates: Sequence[Gate]) -> np.ndarray:
        """The ids of ``gates``, adding a row for every unseen value."""
        if not isinstance(gates, (list, tuple)):
            gates = list(gates)
        ids = list(map(self._by_object.get, map(id, gates)))
        if None in ids:
            strangers = [g for g, gid in zip(gates, ids) if gid is None]
            values = list(map(_VALUE, strangers))
            # one row per unseen value (its first stranger becomes the
            # table's object for it), then every stranger resolves by value
            firsts = dict(zip(reversed(values), reversed(strangers)))
            with self._lock:
                for value, gate in firsts.items():
                    if value not in self._by_value:
                        self._add(gate, value)
            found = map(self._by_value.__getitem__, values)
            ids = [next(found) if gid is None else gid for gid in ids]
        return np.array(ids, dtype=np.int32)

    def _add(self, gate: Gate, value: tuple) -> int:
        """Give the unseen ``gate`` the next id and fill in its row
        (caller holds the lock; the maps learn the id last)."""
        gid = len(self.gates)
        if gid == len(self._rows):
            self._rows = np.concatenate([self._rows, np.empty_like(self._rows)])
            self._param = np.concatenate([self._param, np.empty_like(self._param)])
        qubits, param = gate.qubits, gate.param
        name_id = self._name_id(gate.name)
        q0, q1 = (tuple(qubits[:2]) + (0, 0))[:2]
        self._rows[gid] = (name_id, len(qubits), q0, q1, param is not None)
        self._param[gid] = param or 0.0
        self.gates.append(gate)
        self._by_object[id(gate)] = gid
        self._by_value[value] = gid
        if 1 <= len(qubits) <= 2:  # its canonical wire key
            head = (name_id << 3) | (len(qubits) << 1) | (param is not None)
            self._by_key[head, qubits[0], qubits[-1], param or 0.0] = gid
        return gid

    def _name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            with self._lock:
                name_id = self._name_ids.get(name)
                if name_id is None:
                    name_id = len(self._names)
                    self._names.append(name)
                    self._name_ids[name] = name_id
        return name_id

    def gates_of(self, ids: np.ndarray) -> list[Gate]:
        """The (shared) ``Gate`` objects of ``ids``, as a fresh list."""
        return list(map(self.gates.__getitem__, ids.tolist()))

    @property
    def names(self) -> list[str]:
        """Gate names by name id (append-only; the first four are
        :data:`~repro.circuits.gate.GATE_NAMES`)."""
        return self._names

    def columns(
        self, ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(name id, first qubit, second qubit, param)`` of ``ids``: a
        row gather.  The second qubit of a one-qubit gate and the param
        of an unparametrised one read 0."""
        rows = self._rows[ids]
        return rows[:, 0], rows[:, 2], rows[:, 3], self._param[ids]

    def qubits(self, gid: int) -> tuple[int, ...]:
        """The qubits of row ``gid``."""
        return self.gates[gid].qubits

    def row_table(self, rows: np.ndarray) -> "RowTable":
        """The distinct ids ``rows`` as a :class:`RowTable`, position
        ``p`` reading row ``rows[p]`` (and an opaque row its qubits)."""
        opaque = np.flatnonzero(self._rows[rows, 0] >= len(GATE_NAMES)).tolist()
        qubits = {p: self.qubits(rows[p]) for p in opaque}
        return RowTable(self._names, self._rows[rows], self._param[rows], qubits)

    def value_ids(self, values: Sequence[tuple]) -> list[int]:
        """The ids of gate values ``(name, qubits, param)``; a ``Gate``
        is built, and a row added, only for a value not seen before."""
        ids = list(map(self._by_value.get, values))
        if None in ids:
            with self._lock:
                for k, value in enumerate(values):
                    if ids[k] is None:
                        gid = self._by_value.get(value)
                        if gid is None:  # the built gate has the canonical value
                            gate = Gate(*value)
                            value = _VALUE(gate)
                            gid = self._by_value.get(value)
                            if gid is None:
                                gid = self._add(gate, value)
                        ids[k] = gid
        return ids

    def encoded(self, ids: np.ndarray) -> encoding.EncodedSegment:
        """``encode_segment(self.gates_of(ids))`` without touching a ``Gate``.

        Array for array what the reference encoder returns (opcode
        table in first-use order, the same dtype choices), so the
        packed bytes and every fingerprint taken of them are equal.
        """
        rows = self._rows[ids]
        if not _narrow(rows[:, 1]):
            return encoding.encode_segment(self.gates_of(ids))
        return encoding.encode_columns(
            self._names,
            rows[:, 0],
            rows[:, 1],
            rows[:, 2:4],
            rows[:, 4].astype(bool),
            self._param[ids],
        )

    def content_key(self, ids: np.ndarray, namespace: bytes = b"") -> str:
        """The content key of the segment ``ids`` under ``namespace``: a
        keyed blake2b over its rows' value digests, so equal gate lists
        get equal keys from any table."""
        if self._digested < len(self.gates):
            self._fill_digests()
        return encoding.segment_fingerprint(self._digests[ids], namespace=namespace)

    def _fill_digests(self) -> None:
        """Digest every row added since the last fill, then publish."""
        with self._lock:
            done, n = self._digested, len(self.gates)
            digests = self._digests
            if n > len(digests):
                digests = np.empty((max(n, 2 * len(digests)), 16), dtype=np.uint8)
                digests[:done] = self._digests[:done]
            fresh = b"".join(map(_digest, self.gates[done:n]))
            digests[done:n] = np.frombuffer(fresh, dtype=np.uint8).reshape(-1, 16)
            self._digests = digests
            self._digested = n

    def ids_from_encoded(self, encoded: encoding.EncodedSegment) -> np.ndarray:
        """The ids of ``decode_segment(encoded)``, one dict probe per gate
        — per distinct wire value from :data:`GROUP_FROM` gates up.

        The probe key is ``(name id << 3 | arity << 1 | has param, first
        qubit, last qubit, param or 0.0)``; a long input is grouped by
        it in numpy first (one integer per gate: the key's fields in
        mixed radix, the param as its rank among the input's).  A
        ``Gate`` is constructed only for a key met for the first time —
        validated and angle-normalized as the reference decoder would.
        """
        n = encoded.length
        if not _narrow(encoded.arities):
            return self.intern(encoding.decode_segment(encoded))
        name = np.array(
            [self._name_id(name) for name in encoded.names], dtype=np.int64
        )[encoded.ops]
        arity, first, last, has_param, param = encoding.wire_columns(encoded)
        head = (name << 3) | (arity << 1) | has_param
        rows = group = slice(None)  # one probe per gate, unless they group
        if n >= GROUP_FROM:
            _, rank = np.unique(param, return_inverse=True)
            ranks = int(rank.max()) + 1
            span = int(max(first.max(), last.max())) + 1
            if min(first.min(), last.min()) >= 0 and (
                (len(self._names) << 3) * span * span * ranks < 1 << 63
            ):
                mixed = ((head * span + first) * span + last) * ranks + rank
                _, rows, group = np.unique(
                    mixed, return_index=True, return_inverse=True
                )
        keys = list(
            zip(
                head[rows].tolist(),
                first[rows].tolist(),
                last[rows].tolist(),
                param[rows].tolist(),
            )
        )
        ids = list(map(self._by_key.get, keys))
        if None in ids:  # wire values met for the first time: once each
            with self._lock:
                for key in dict.fromkeys(k for k, gid in zip(keys, ids) if gid is None):
                    if key not in self._by_key:
                        self._by_key[key] = self._wire_value(*key)
            ids = list(map(self._by_key.__getitem__, keys))
        return np.array(ids, dtype=np.int32)[group]

    def _wire_value(self, head: int, first: int, last: int, param: float) -> int:
        """The id of one wire value, by way of the ``Gate`` it decodes to."""
        qubits = (first, last)[: (head >> 1) & 3]
        gate = Gate(self._names[head >> 3], qubits, param if head & 1 else None)
        value = _VALUE(gate)
        gid = self._by_value.get(value)
        return self._add(gate, value) if gid is None else gid


class RowTable:
    """One claim round's distinct rows of a :class:`GateTable`, by position.

    What an id entry (``run_ids``) runs against in a worker: it answers
    :meth:`columns`, :meth:`qubits` and :attr:`names` as the table
    would, and a rewritten value handed to :meth:`value_ids` is
    collected in :attr:`values` as ``(name, qubits, param)`` — no
    ``Gate`` built — at position ``len(rows) + k``.
    """

    def __init__(self, names, rows, param, opaque) -> None:
        self.names, self._rows, self._param, self._opaque = names, rows, param, opaque
        self.values: list[tuple] = []

    columns = GateTable.columns

    def qubits(self, gid: int) -> tuple[int, ...]:
        return self._opaque[gid]

    def value_ids(self, values: Sequence[tuple]) -> list[int]:
        """Positions for rewritten values, past the gathered rows."""
        first = len(self._rows) + len(self.values)
        self.values.extend(values)
        return list(range(first, first + len(values)))


_THREAD = threading.local()


def thread_table() -> GateTable:
    """The calling thread's bounded scratch table.

    For code that sees one segment at a time and keeps no ids between
    segments (an oracle worker): once the table has outgrown
    :data:`TABLE_CAP` the next call starts a fresh one, so call this
    once per segment.
    """
    table = getattr(_THREAD, "table", None)
    if table is None or len(table) > TABLE_CAP:
        table = _THREAD.table = GateTable()
    return table
