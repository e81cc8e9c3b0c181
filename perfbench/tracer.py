"""In-memory span tracer that wraps the program's public entry points.

The traced run patches a method on a class (or on one object) with a
wrapper that records a span -- name, start, end and the span open when it
was called -- and restores the original afterwards.  Nothing under
``src/`` knows about it.  Spans live in four flat arrays; :meth:`Tracer.dump`
writes them out once the run is over.

A span's self time is its duration minus the time covered by its direct
children.  Because the process is single-threaded, spans nest strictly
and the parent of a span is the one on top of the stack when it opens.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple

#: Array typecodes of the dumped columns, in file order.
COLUMNS = (("name", "H"), ("parent", "q"), ("start", "d"), ("end", "d"))


class Tracer:
    """Records nested spans; patches and restores wrapped callables."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self._patched: List[Tuple[Any, str, Any, bool]] = []

    # ------------------------------------------------------------- recording
    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        """Open a span under the innermost open one; returns its index."""
        index = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(self.clock())
        self.end.append(0.0)
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        """Close the innermost span, which must be ``index``."""
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {index} closed out of order")
        self.end[index] = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that every call records one ``name`` span."""
        nid = self.name_id(name)
        clock = self.clock
        stack = self._stack
        names, parents, starts, ends = self.name, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # --------------------------------------------------------------- patching
    def patch(self, owner: Any, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` by a traced wrapper until :meth:`restore`."""
        self.replace(owner, attribute, self.wrap(name, getattr(owner, attribute)))

    def replace(self, owner: Any, attribute: str, value: Any) -> None:
        """Set ``owner.attribute`` to ``value`` until :meth:`restore`."""
        had_own = attribute in vars(owner)
        self._patched.append((owner, attribute, vars(owner).get(attribute), had_own))
        setattr(owner, attribute, value)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patched:
            owner, attribute, original, had_own = self._patched.pop()
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    # --------------------------------------------------------------- analysis
    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> List[float]:
        return self_times(self.parent, self.start, self.end)

    def self_by_name(self) -> Dict[str, float]:
        """Total self time per span name."""
        totals: Dict[str, float] = {}
        for index, own in enumerate(self.self_times()):
            name = self.names[self.name[index]]
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def count_by_name(self) -> Dict[str, int]:
        counts = [0] * len(self.names)
        for nid in self.name:
            counts[nid] += 1
        return {name: counts[nid] for nid, name in enumerate(self.names)}

    def root_time(self) -> float:
        """Summed duration of the spans that have no parent."""
        return sum(
            self.end[i] - self.start[i] for i in range(len(self.start)) if self.parent[i] < 0
        )

    def dump(self, directory: Path, stem: str, summary: Dict[str, Any]) -> Path:
        """Write the spans (binary columns) and a JSON header; returns the header path.

        The header names the column file, the typecodes in :data:`COLUMNS`
        and the span count; :func:`load` reads both back.
        """
        directory.mkdir(parents=True, exist_ok=True)
        columns = directory / f"{stem}.spans.bin"
        with columns.open("wb") as handle:
            for attribute, _ in COLUMNS:
                getattr(self, attribute).tofile(handle)
        header = directory / f"{stem}.trace.json"
        header.write_text(
            json.dumps(
                {
                    "columns_file": columns.name,
                    "columns": [list(column) for column in COLUMNS],
                    "spans": len(self),
                    "names": self.names,
                    "summary": summary,
                },
                indent=1,
                sort_keys=True,
            )
        )
        return header


def self_times(parent: Sequence[int], start: Sequence[float], end: Sequence[float]) -> List[float]:
    """Per-span duration minus the durations of its direct children."""
    own = [end[i] - start[i] for i in range(len(start))]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def load(header_path: Path) -> Dict[str, Any]:
    """Read a dumped trace back: the header dict plus one list per column."""
    header = json.loads(Path(header_path).read_text())
    count = header["spans"]
    out = dict(header)
    with (Path(header_path).parent / header["columns_file"]).open("rb") as handle:
        for attribute, code in header["columns"]:
            column = array(code)
            column.fromfile(handle, count)
            out[attribute] = list(column)
    return out
