"""Check, on any interpreter, that one load shares equal cells and frees them.

Standard library only, so it runs where pytest is not installed::

    PYTHONPATH=src python3.12 tests/check_shared_cells.py

It writes a generated file of tables with four low-cardinality columns,
loads it twice, and checks that equal cells are one object within a load
and that the two loads share none.  Then it deletes both loads and checks
that the interpreter's allocated blocks, and the resident set read from
``/proc/self/status``, fall back to what they were before.  For contrast it
interns the same number of distinct strings with ``sys.intern``, drops them
and reports whether that memory came back (on Python 3.12 it does not:
interned strings are immortal there).  It exits 1 if a check fails.
"""

import gc
import json
import os
import platform
import sys
import tempfile

from tabreason.tables import load_instances

TABLES = 20
ROWS = 2500


def rss_mb():
    """The resident set in MB, or None where ``/proc`` is absent."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def write_file(path):
    with open(path, "w", encoding="utf-8") as fh:
        for t in range(TABLES):
            rows = [["Nation %d" % ((i + t) % 37), str(1950 + i % 60), "Club %d" % (i % 211),
                     "Player %d" % (i % 900)] for i in range(ROWS)]
            table = {"headers": ["Nationality", "Year", "Club", "Name"], "rows": rows}
            fh.write(json.dumps({"id": "t%d" % t, "task": "short_qa", "query": "q", "table": table}))
            fh.write("\n")


def cell_ids(instances):
    return {id(c) for inst in instances for row in inst.table.rows for c in row}


def settle():
    gc.collect()
    return sys.getallocatedblocks(), rss_mb()


def show(label, blocks, rss):
    print("  %-28s %9d blocks   RSS %s" % (label, blocks, "n/a" if rss is None else "%.1f MB" % rss))


def main():
    print("Python %s (%s)" % (platform.python_version(), sys.executable))
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tables.jsonl")
        write_file(path)
        before = settle()
        show("before the loads", *before)
        once, again = load_instances(path), load_instances(path)
        loaded = settle()
        show("after two loads", *loaded)
        cells = [c for inst in once for row in inst.table.rows for c in row]
        distinct = len(set(cells))
        print("  %d cells, %d distinct values, %d objects in one load"
              % (len(cells), distinct, len(cell_ids(once))))
        if len(cell_ids(once)) != distinct:
            failures.append("equal cells of one load are not one object")
        if cell_ids(once) & cell_ids(again):
            failures.append("two loads share cell objects")
        del once, again, cells
        after = settle()
        show("after deleting both", *after)
        grown, kept = loaded[0] - before[0], after[0] - before[0]
        if kept > grown // 20:
            failures.append("%d of the loads' %d blocks still allocated" % (kept, grown))
        if None not in (before[1], loaded[1], after[1]):
            rss_grown, rss_kept = loaded[1] - before[1], after[1] - before[1]
            print("  RSS grew %.1f MB over the loads; %.1f MB of it stayed" % (rss_grown, rss_kept))
            if rss_kept > rss_grown / 2:
                failures.append("RSS did not fall back: %.1f of %.1f MB stayed" % (rss_kept, rss_grown))

    interned = [sys.intern("interned %d" % i) for i in range(TABLES * ROWS)]
    held = settle()
    del interned
    freed = settle()
    print("  sys.intern contrast: %d blocks held, %d freed when dropped"
          % (held[0] - after[0], held[0] - freed[0]))

    for failure in failures:
        print("FAIL: %s" % failure)
    print("ok" if not failures else "failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
