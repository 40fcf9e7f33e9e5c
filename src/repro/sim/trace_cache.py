"""Shared committed-trace cache.

The committed dynamic-uop stream of a region is a pure function of
``(program, start_instruction, total_instructions)`` — the timing
configuration, the predictor, and Branch Runahead never change what the
program *does*, only how long it takes.  The experiment matrix therefore
re-runs the exact same functional emulation once per variant; this module
memoizes it so each region is emulated once and *replayed* for every other
variant.

Replay must be indistinguishable from live emulation to every consumer.
The subtle part is memory: in a live run the machine's memory evolves
lazily — the store of record ``i`` is applied at the moment record ``i`` is
produced — and Branch Runahead reads that memory mid-stream (DCE chain
loads, shadow wrong-path walks through an
:class:`~repro.emulator.memory.OverlayMemory`).  A replay therefore snapshots
the pre-region memory image at record time and re-applies each ST record to
its own replica as it yields, so any consumer reading
``machine.memory`` between two records sees bit-identical state in live and
replayed runs.  ``tests/test_trace_cache.py`` pins this invariant by
comparing full ``SimulationResult.to_dict()`` payloads.

**Prediction columns.**  The baseline predictor is looked up and trained
on every committed conditional branch whatever else is attached — Branch
Runahead only overrides its prediction at fetch and never feeds it — so
its predictions are a pure function of the stream too.  ``simulate()``
records them once per region and predictor registry name on
:attr:`TraceEntry.predictions`; later runs of that region read the column
instead of running the predictor again.

The cache is LRU-bounded (``REPRO_TRACE_CACHE`` entries, default 32) and
keyed by program *identity*: entries hold a strong reference to their
program, which both keeps ``id(program)`` valid and means a rebuilt Program
object (whose uops were re-placed) can never alias a stale entry.

**Disk persistence.**  With ``REPRO_TRACE_CACHE_DIR`` set (or ``disk_dir``
passed), entries additionally spill to disk so spawn-start multiprocessing
workers and repeat CLI invocations start warm.  Identity keys do not
survive a process boundary, so on-disk entries are keyed by a *content*
fingerprint: the sha256 over the program's name, every static uop's
architectural fields, and the initial memory image (memoized per Program
object).  Each file carries a magic/version header and a payload digest;
a truncated, corrupted, or version-mismatched file is a clean miss (the
offender is deleted best-effort), never a crash.  Writes go through a
same-directory temp file and ``os.replace`` so concurrent workers spilling
the same region can never expose a half-written entry.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from collections import OrderedDict
from typing import Iterator, List, Optional, Tuple

from repro.config import env_int, env_str
from repro.emulator.machine import Machine
from repro.emulator.memory import Memory
from repro.emulator.trace import DynamicUop
from repro.isa import uop as U
from repro.isa.program import Program
from repro.isa.registers import CC
from repro.sim.branch_events import (
    EVENT_FORMAT_VERSION,
    BranchColumns,
    extract_columns,
    read_columns,
    write_columns,
)

#: Default LRU capacity (regions, not uops) when ``REPRO_TRACE_CACHE`` is
#: unset.  A full benchmark suite sweep touches one region per benchmark.
DEFAULT_CAPACITY = 32

#: On-disk format version; bumped whenever the payload layout changes.
#: The version participates in both the filename and the header, so old
#: files are simply never found (and would be rejected if renamed).
FORMAT_VERSION = 1

_MAGIC = b"RPTC"
_HEADER_LEN = len(_MAGIC) + 2 + 32  # magic + u16 version + payload sha256


def write_framed(path: str, payload: bytes, magic: bytes,
                 version: int) -> None:
    """Atomically write one framed blob: magic + u16 version + sha256 + body.

    The frame is the shared on-disk contract between the trace cache and
    the sweep :class:`~repro.sched.store.ResultStore` — a reader can
    always tell truncation, version skew, and bit rot apart from a valid
    entry before touching the pickle inside.  Writes go through a
    same-directory temp file and ``os.replace`` so concurrent writers of
    the same key can never expose a half-written file.
    """
    header = (magic + version.to_bytes(2, "little")
              + hashlib.sha256(payload).digest())
    temp_path = f"{path}.tmp.{os.getpid()}"
    with open(temp_path, "wb") as handle:
        handle.write(header)
        handle.write(payload)
    os.replace(temp_path, path)  # atomic: readers never see partials


def read_framed(blob: bytes, magic: bytes, version: int) -> bytes:
    """Validate a framed blob and return its payload bytes.

    Raises ``ValueError`` on a bad magic, a truncated header, a version
    mismatch, or a payload whose sha256 does not match the header —
    callers turn any of those into a counted clean miss.
    """
    header_len = len(magic) + 2 + 32
    if len(blob) < header_len or not blob.startswith(magic):
        raise ValueError("bad magic or truncated header")
    found = int.from_bytes(blob[len(magic):len(magic) + 2], "little")
    if found != version:
        raise ValueError(f"format version {found}")
    payload = blob[header_len:]
    if hashlib.sha256(payload).digest() != blob[len(magic) + 2:header_len]:
        raise ValueError("payload digest mismatch")
    return payload


def program_fingerprint(program: Program) -> str:
    """Content sha256 of a program, memoized on the Program object.

    Covers the name, every uop's architectural fields, and the initial
    memory image — everything that determines the committed stream of a
    region.  Two separately built but identical programs (e.g. the same
    benchmark rebuilt in another process) fingerprint equal.
    """
    cached = getattr(program, "_content_fingerprint", None)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    digest.update(program.name.encode())
    for op in program.uops:
        digest.update(repr((op.opcode, op.dst, op.srcs, op.imm, op.base,
                            op.index, op.scale, op.disp, op.cond,
                            op.target)).encode())
    digest.update(repr(sorted(program.initial_memory.items())).encode())
    fingerprint = digest.hexdigest()
    program._content_fingerprint = fingerprint
    return fingerprint


class TraceEntry:
    """One recorded region: its records plus enough state to replay them."""

    __slots__ = ("program", "start", "total", "records", "pre_memory",
                 "start_regs", "start_pc", "start_seq",
                 "final_pc", "final_seq", "halted", "branch_columns",
                 "predictions")

    def __init__(self, program: Program, start: int, total: int,
                 records: List[DynamicUop], pre_memory: Memory,
                 start_regs: List[int], start_pc: int, start_seq: int,
                 final_pc: int, final_seq: int, halted: bool):
        self.program = program
        self.start = start
        self.total = total
        self.records = records
        self.pre_memory = pre_memory
        self.start_regs = start_regs
        self.start_pc = start_pc
        self.start_seq = start_seq
        self.final_pc = final_pc
        self.final_seq = final_seq
        self.halted = halted
        #: Lazily extracted :class:`~repro.sim.branch_events.BranchColumns`
        #: for the region (the MPKI-only replay path's working set); None
        #: until :meth:`TraceCache.branch_columns` extracts or loads them.
        self.branch_columns = None
        #: Predictor registry name -> the baseline's prediction for every
        #: conditional branch of the region, warmup included, in stream
        #: order.  Memory-only: never spilled, so a reloaded entry starts
        #: empty and the disk format is unchanged.
        self.predictions = {}

    @property
    def branch_events(self):
        """Classic ``(region_index, pc, taken)`` tuple view of the columns.

        Memoized on the columns object, so repeated reads return the same
        list — and, unlike the pre-columnar attribute this replaces, the
        columns survive a disk spill/reload round-trip via the ``.events``
        sidecar instead of being re-extracted per process.
        """
        columns = self.branch_columns
        return columns.events() if columns is not None else None


class ReplayMachine:
    """Drop-in :class:`~repro.emulator.machine.Machine` for a cached region.

    Exposes the attributes the simulator and Branch Runahead consume —
    ``program``, ``memory``, ``regs``, ``pc``, ``seq``, ``halted`` — and a
    :meth:`stream` that yields the recorded records while applying each
    record's architectural side effect (register writeback or store) to
    this machine's private replica state, keeping ``memory``/``regs``/
    ``pc``/``seq`` exactly in step with what a live machine would contain
    at the same point of consumption.
    """

    def __init__(self, entry: TraceEntry):
        self.entry = entry
        self.program = entry.program
        #: Private replica: replays are independent, so a half-consumed
        #: replay can never leak state into the next one.
        self.memory = entry.pre_memory.copy()
        self.regs: List[int] = list(entry.start_regs)
        self.pc = entry.start_pc
        self.seq = entry.start_seq
        self.halted = False

    def stream(self, max_instructions: int) -> Iterator[DynamicUop]:
        """Yield the recorded region (at most ``max_instructions`` records).

        The entry was recorded for exactly this region length, so the limit
        only matters defensively; records keep their original ``seq``.
        """
        entry = self.entry
        records = entry.records
        if max_instructions < len(records):
            records = records[:max_instructions]
        memory_write = self.memory.write
        regs = self.regs
        # applied *before* each yield, exactly when the live machine's
        # execute closure would have applied it
        for record in records:
            op = record.uop
            opcode = op.opcode
            if opcode <= U.CMPI:
                if opcode >= U.CMP:
                    regs[CC] = record.dst_value
                else:
                    regs[op.dst] = record.dst_value
            elif opcode == U.LD:
                regs[op.dst] = record.dst_value
            elif opcode == U.ST:
                memory_write(record.addr, record.value)
            self.pc = record.next_pc
            self.seq = record.seq + 1
            yield record
        if len(records) == len(entry.records):
            # fully replayed: mirror the live machine's terminal flags
            self.pc = entry.final_pc
            self.seq = entry.final_seq
            self.halted = entry.halted

    def fast_forward(self, count: int) -> int:
        raise RuntimeError(
            "ReplayMachine regions already include their fast-forward; "
            "request the replay with the same start_instruction instead")


class TraceCache:
    """LRU cache of committed-region traces, shared across variants.

    Thread-compatible but not thread-safe; in the parallel experiment
    runner each worker process owns its own instance (a fork inherits the
    parent's warm entries for free).
    """

    def __init__(self, capacity: Optional[int] = None,
                 disk_dir: Optional[str] = None):
        if capacity is None:
            capacity = env_int("REPRO_TRACE_CACHE", DEFAULT_CAPACITY)
        if capacity < 1:
            raise ValueError("trace cache capacity must be positive")
        if disk_dir is None:
            disk_dir = env_str("REPRO_TRACE_CACHE_DIR", None)
        self.capacity = capacity
        self.disk_dir = disk_dir
        self._entries: "OrderedDict[Tuple[int, int, int], TraceEntry]" = \
            OrderedDict()
        #: Branch columns that arrived without a full entry (loaded from an
        #: ``.events`` sidecar while the ``.trace`` pickle stayed on disk),
        #: keyed like entries and holding the program for id() validity.
        self._event_columns: "OrderedDict[Tuple[int, int, int], "\
            "Tuple[Program, BranchColumns]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.disk_hits = 0
        self.disk_misses = 0
        self.spills = 0
        self.spill_errors = 0
        self.corrupt_entries = 0
        self.event_disk_hits = 0
        self.event_spills = 0
        self.column_hits = 0
        self.column_misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def replay(self, program: Program, start: int,
               total: int) -> Optional[ReplayMachine]:
        """Return a replay machine for the region, or None on a miss."""
        entry = self.lookup(program, start, total)
        return ReplayMachine(entry) if entry is not None else None

    def lookup(self, program: Program, start: int, total: int,
               count: bool = True) -> Optional[TraceEntry]:
        """Raw entry lookup (memory, then disk) without a ReplayMachine.

        The MPKI-only replay path reads ``entry.records`` directly — it
        needs no memory replica.  ``count=False`` suppresses the hit/miss
        counters for internal re-lookups right after a record, so cache
        effectiveness numbers keep meaning "work avoided".
        """
        key = (id(program), start, total)
        entry = self._entries.get(key)
        if entry is None or entry.program is not program:
            if self.disk_dir is not None:
                entry = self._load_from_disk(program, start, total)
                if entry is not None:
                    if count:
                        self.disk_hits += 1
                        self.hits += 1
                    self._store(entry, spill=False)
                    return entry
                if count:
                    self.disk_misses += 1
            if count:
                self.misses += 1
            return None
        self._entries.move_to_end(key)
        if count:
            self.hits += 1
        return entry

    def branch_columns(self, program: Program, start: int, total: int,
                       count: bool = True) -> Optional[BranchColumns]:
        """Columnar branch events for a region, or None on a full miss.

        Resolution order, cheapest first: a memory entry's memoized
        columns (extracted once from its records); columns previously
        loaded standalone; the on-disk ``.events`` sidecar (never touches
        pickle); finally the full on-disk ``.trace`` entry, from which
        columns are extracted and a sidecar spilled for the next process.
        A miss means the region was never recorded — the caller emulates
        through :meth:`record` and re-asks with ``count=False``.
        """
        key = (id(program), start, total)
        entry = self._entries.get(key)
        if entry is not None and entry.program is program:
            self._entries.move_to_end(key)
            columns = entry.branch_columns
            if columns is None:
                columns = extract_columns(entry.records)
                entry.branch_columns = columns
                self._spill_events(program, start, total, columns)
            if count:
                self.hits += 1
            return columns
        side = self._event_columns.get(key)
        if side is not None and side[0] is program:
            self._event_columns.move_to_end(key)
            if count:
                self.hits += 1
            return side[1]
        if self.disk_dir is not None:
            columns = self._load_events(program, start, total)
            if columns is not None:
                if count:
                    self.hits += 1
                    self.event_disk_hits += 1
                self._memo_columns(key, program, columns)
                return columns
            entry = self._load_from_disk(program, start, total)
            if entry is not None:
                if count:
                    self.hits += 1
                    self.disk_hits += 1
                self._store(entry, spill=False)
                columns = extract_columns(entry.records)
                entry.branch_columns = columns
                self._spill_events(program, start, total, columns)
                return columns
            if count:
                self.disk_misses += 1
        if count:
            self.misses += 1
        return None

    def prediction_column(self, machine: Optional[ReplayMachine],
                          name: str) -> Optional[list]:
        """Stored prediction column of predictor ``name``, or None.

        ``machine`` is what :meth:`replay` returned for the region; a live
        run (``None``) has no entry yet and always misses.  Counts a
        column hit or miss, never a trace-cache probe.
        """
        column = machine.entry.predictions.get(name) \
            if machine is not None else None
        if column is None:
            self.column_misses += 1
        else:
            self.column_hits += 1
        return column

    def store_prediction_column(self, program: Program, start: int,
                                total: int, name: str, column: list) -> None:
        """Attach a completed run's prediction column to its region."""
        entry = self.lookup(program, start, total, count=False)
        if entry is not None:
            entry.predictions[name] = column

    def _memo_columns(self, key: Tuple[int, int, int], program: Program,
                      columns: BranchColumns) -> None:
        memo = self._event_columns
        memo[key] = (program, columns)
        memo.move_to_end(key)
        while len(memo) > self.capacity:
            memo.popitem(last=False)

    def record(self, machine: Machine, start: int, total: int,
               source: Iterator[DynamicUop]) -> Iterator[DynamicUop]:
        """Wrap a live stream so the region is cached once it completes.

        Must be called *after* any fast-forward, so the memory snapshot and
        start registers capture the region entry state.  If the consumer
        abandons the stream early nothing is stored.
        """
        program = machine.program
        pre_memory = machine.memory.copy()
        start_regs = list(machine.regs)
        start_pc = machine.pc
        start_seq = machine.seq

        def recording() -> Iterator[DynamicUop]:
            records: List[DynamicUop] = []
            append = records.append
            for record in source:
                append(record)
                yield record
            self._store(TraceEntry(
                program, start, total, records, pre_memory,
                start_regs, start_pc, start_seq,
                machine.pc, machine.seq, machine.halted))

        return recording()

    def _store(self, entry: TraceEntry, spill: bool = True) -> None:
        key = (id(entry.program), entry.start, entry.total)
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
        entries[key] = entry
        while len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1
        if spill and self.disk_dir is not None:
            self._spill_to_disk(entry)

    # -- disk persistence -------------------------------------------------

    def _disk_path(self, program: Program, start: int, total: int) -> str:
        key = (f"{program_fingerprint(program)}:{start}:{total}"
               f":v{FORMAT_VERSION}")
        name = hashlib.sha256(key.encode()).hexdigest()
        return os.path.join(self.disk_dir, f"{name}.trace")

    def _spill_to_disk(self, entry: TraceEntry) -> None:
        """Serialize an entry; failures only count, never propagate."""
        try:
            path = self._disk_path(entry.program, entry.start, entry.total)
            if os.path.exists(path):
                return  # another worker (or a prior run) already spilled it
            payload = pickle.dumps({
                "fingerprint": program_fingerprint(entry.program),
                "start": entry.start,
                "total": entry.total,
                "records": [(r.pc, r.seq, r.next_pc, r.taken, r.addr,
                             r.value, r.dst_value) for r in entry.records],
                "pre_memory": dict(entry.pre_memory._words),
                "start_regs": list(entry.start_regs),
                "start_pc": entry.start_pc,
                "start_seq": entry.start_seq,
                "final_pc": entry.final_pc,
                "final_seq": entry.final_seq,
                "halted": entry.halted,
            }, protocol=pickle.HIGHEST_PROTOCOL)
            os.makedirs(self.disk_dir, exist_ok=True)
            write_framed(path, payload, _MAGIC, FORMAT_VERSION)
            self.spills += 1
        except OSError:
            self.spill_errors += 1

    def _events_path(self, program: Program, start: int, total: int) -> str:
        key = (f"{program_fingerprint(program)}:{start}:{total}"
               f":events:v{EVENT_FORMAT_VERSION}")
        name = hashlib.sha256(key.encode()).hexdigest()
        return os.path.join(self.disk_dir, f"{name}.events")

    def _spill_events(self, program: Program, start: int, total: int,
                      columns: BranchColumns) -> None:
        """Write the ``.events`` sidecar; failures count, never propagate."""
        if self.disk_dir is None:
            return
        try:
            path = self._events_path(program, start, total)
            if os.path.exists(path):
                return
            os.makedirs(self.disk_dir, exist_ok=True)
        except OSError:
            self.spill_errors += 1
            return
        if write_columns(path, columns, program_fingerprint(program)):
            self.event_spills += 1
        else:
            self.spill_errors += 1

    def _load_events(self, program: Program, start: int,
                     total: int) -> Optional[BranchColumns]:
        """Read a sidecar; any damage is a clean miss, not a crash."""
        path = self._events_path(program, start, total)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            return None
        try:
            return read_columns(blob, program_fingerprint(program))
        except Exception:
            self.corrupt_entries += 1
            try:
                os.remove(path)
            except OSError:
                pass
            return None

    def _load_from_disk(self, program: Program, start: int,
                        total: int) -> Optional[TraceEntry]:
        """Deserialize an entry; any damage is a clean miss, not a crash."""
        path = self._disk_path(program, start, total)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            return None
        try:
            data = pickle.loads(read_framed(blob, _MAGIC, FORMAT_VERSION))
            if (data["fingerprint"] != program_fingerprint(program)
                    or data["start"] != start or data["total"] != total):
                raise ValueError("key mismatch")
            uops = program.uops
            records = [DynamicUop(uops[pc], seq, next_pc, taken, addr,
                                  value, dst_value)
                       for pc, seq, next_pc, taken, addr, value, dst_value
                       in data["records"]]
            pre_memory = Memory()
            pre_memory._words = dict(data["pre_memory"])
            return TraceEntry(program, start, total, records, pre_memory,
                              list(data["start_regs"]), data["start_pc"],
                              data["start_seq"], data["final_pc"],
                              data["final_seq"], data["halted"])
        except Exception:
            # truncated/garbage/stale file: drop it so the next run respills
            self.corrupt_entries += 1
            try:
                os.remove(path)
            except OSError:
                pass
            return None

    def clear(self) -> None:
        self._entries.clear()
        self._event_columns.clear()

    def stats(self) -> dict:
        return {"entries": len(self._entries), "hits": self.hits,
                "misses": self.misses, "evictions": self.evictions,
                "disk_hits": self.disk_hits,
                "disk_misses": self.disk_misses,
                "spills": self.spills, "spill_errors": self.spill_errors,
                "corrupt_entries": self.corrupt_entries,
                "event_disk_hits": self.event_disk_hits,
                "event_spills": self.event_spills}

    def register_into(self, scope) -> None:
        """Publish cache effectiveness counters (``host.trace_cache.*``)."""
        scope.counter("hits").set(self.hits)
        scope.counter("misses").set(self.misses)
        scope.counter("evictions").set(self.evictions)
        scope.gauge("entries").set(len(self._entries))
        scope.gauge("prediction_columns").set(
            sum(len(entry.predictions) for entry in self._entries.values()))
        scope.counter("column_hits").set(self.column_hits)
        scope.counter("column_misses").set(self.column_misses)
        if self.disk_dir is not None:
            scope.counter("disk_hits").set(self.disk_hits)
            scope.counter("disk_misses").set(self.disk_misses)
            scope.counter("spills").set(self.spills)
            scope.counter("spill_errors").set(self.spill_errors)
            scope.counter("corrupt_entries").set(self.corrupt_entries)
            scope.counter("event_disk_hits").set(self.event_disk_hits)
            scope.counter("event_spills").set(self.event_spills)
