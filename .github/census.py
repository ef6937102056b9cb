#!/usr/bin/env python3
"""Reachability census: which functions under ``src/repro`` does anything run?

A function earns its place when a *product consumer* runs it: an e2ebench
workload, a paper-table benchmark, an example or the campaignd fabric
smoke.  The census runs those consumers, then tier-1 on its own, and sorts
every function ``ast`` finds under ``src/repro`` into three categories:

* ``product``     — reached by at least one product consumer;
* ``tier-1 only`` — reached only by the tier-1 tests;
* ``unreached``   — reached by nothing the census ran.

How it watches: it copies the checkout to a temporary directory and puts a
``sitecustomize.py`` into the copy's ``src/``.  Every process started with
that ``src/`` on its path — the consumers, their forked pool children and the
smoke's CLI subprocesses — then installs a call-only ``sys.settrace`` /
``threading.settrace`` hook that appends each new ``src/repro`` code object
to a file named after its pid.  Functions are matched by (file, first line
including decorators, name).  Lambdas and comprehensions are not counted.

The consumers: one ``sweep``, two ``retest``, one ``pooled`` and one
``fabric`` pass through ``e2ebench/workload.py``'s ``Bench``; the nine
paper-table benchmarks; the four examples; and the campaignd smoke.  A
consumer that fails is reported but does not stop the census; the hook
slows every call, so the timing bounds of tables 5 and 6 may fail under
it, and the census counts reach, not passes.  The oracle leg (tier-1 on
the reference engine, snapshots and memo off) is not run, so code that
only the slow paths reach shows as ``tier-1 only`` or ``unreached``:
``CompiledTarget.restore_os_boundary``, the snapshot-free group resume,
is one.  Standard library only; nothing is written inside the checkout.
About 2.5 minutes on a 2-vCPU host.

Usage::

    python3 .github/census.py                     # this checkout
    python3 .github/census.py --checkout OTHER    # another tree
    python3 .github/census.py --list              # also name each function
"""

from __future__ import annotations

import argparse
import ast
import glob
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from typing import Dict, List, NamedTuple, Set, Tuple

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Written into the copy's ``src/``; ``{out}`` is the directory the hook
#: appends to.  Records are ``path-under-src/repro<TAB>first line<TAB>name``.
SITECUSTOMIZE = '''\
import os
import sys
import threading

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "repro") + os.sep
_OUT = {out!r}
_seen = set()
_handle = [None, -1]


def _record(code):
    pid = os.getpid()
    if _handle[0] != pid:
        _handle[0] = pid
        _handle[1] = os.open(
            os.path.join(_OUT, "%d.tsv" % pid),
            os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644,
        )
    line = "%s\\t%d\\t%s\\n" % (
        code.co_filename[len(_ROOT):], code.co_firstlineno, code.co_name,
    )
    os.write(_handle[1], line.encode())


def _tracer(frame, event, arg):
    code = frame.f_code
    if code not in _seen:
        _seen.add(code)
        if code.co_filename.startswith(_ROOT):
            _record(code)
    return None


sys.settrace(_tracer)
threading.settrace(_tracer)
'''

#: Drives e2ebench passes in-process; run from the copy's root.
E2E_PASSES = '''\
import sys, tempfile
sys.path.insert(0, "e2ebench")
import workload
own = workload.OwnWork()
with tempfile.TemporaryDirectory() as work:
    for name, passes in (("sweep", 1), ("retest", 2), ("pooled", 1), ("fabric", 1)):
        bench = workload.Bench(name, 7, work, own)
        for _ in range(passes):
            runs = bench.run_pass()
            print(name, sum(r.attempted for r in runs), "records,",
                  sum(r.failed for r in runs), "failed", flush=True)
'''


class Function(NamedTuple):
    path: str
    first: int
    name: str
    lines: int


def list_functions(src_repro: str) -> List[Function]:
    """Every ``def`` under *src_repro*, nested ones and methods included.

    A function's lines run from its first decorator to its last line, less
    the lines of the functions nested in it: each line counts once, for
    the innermost function holding it.
    """
    found = []
    pattern = os.path.join(src_repro, "**", "*.py")
    for path in sorted(glob.glob(pattern, recursive=True)):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), path)
        relative = os.path.relpath(path, src_repro)
        spans = [
            (min([node.lineno] + [d.lineno for d in node.decorator_list]),
             node.end_lineno, node.name)
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for first, last, name in spans:
            own = set(range(first, last + 1))
            for inner_first, inner_last, _ in spans:
                if first < inner_first and inner_last <= last:
                    own.difference_update(range(inner_first, inner_last + 1))
            found.append(Function(relative, first, name, len(own)))
    return found


def read_records(directory: str) -> Set[Tuple[str, int, str]]:
    seen = set()
    for path in glob.glob(os.path.join(directory, "*.tsv")):
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                parts = line.rstrip("\n").split("\t")
                if len(parts) == 3:
                    seen.add((parts[0], int(parts[1]), parts[2]))
    return seen


def run_consumer(label: str, argv: List[str], cwd: str, env: Dict[str, str]) -> None:
    started = time.monotonic()
    done = subprocess.run(
        argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True,
    )
    status = "ok" if done.returncode == 0 else f"FAILED (exit {done.returncode})"
    print(f"  {label}: {status}, {time.monotonic() - started:.0f} s", flush=True)
    if done.returncode != 0:
        print("    " + "\n    ".join(done.stdout.strip().splitlines()[-15:]))
    elif label == "e2ebench passes":
        print("    " + "\n    ".join(done.stdout.strip().splitlines()))


def product_consumers(tree: str, scratch: str) -> List[Tuple[str, List[str]]]:
    python = sys.executable
    consumers = [("e2ebench passes", [python, "-c", E2E_PASSES])]
    benches = sorted(glob.glob(os.path.join(tree, "benchmarks", "bench_*.py")))
    consumers.append((
        f"{len(benches)} paper-table benchmarks",
        [python, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--benchmark-disable", *benches],
    ))
    for example in sorted(glob.glob(os.path.join(tree, "examples", "*.py"))):
        consumers.append((f"example {os.path.basename(example)}", [python, example]))
    consumers.append((
        "campaignd smoke",
        [python, os.path.join(tree, ".github", "campaignd_smoke.py"),
         "--log-dir", os.path.join(scratch, "smoke-logs")],
    ))
    return consumers


def census(checkout: str) -> Tuple[List[Function], Dict[str, Set]]:
    scratch = tempfile.mkdtemp(prefix="repro-census-")
    try:
        tree = os.path.join(scratch, "tree")
        shutil.copytree(checkout, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks",
            ".e2ebench-work", "campaignd-logs",
        ))
        src = os.path.join(tree, "src")
        env = {**os.environ, "PYTHONPATH": src}
        phases = [
            ("product", product_consumers(tree, scratch)),
            ("tier-1", [(
                "tier-1 tests",
                [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                 "tests"],
            )]),
        ]
        reached: Dict[str, Set] = {}
        for phase, consumers in phases:
            out = os.path.join(scratch, phase)
            os.makedirs(out)
            hook = os.path.join(src, "sitecustomize.py")
            with open(hook, "w", encoding="utf-8") as handle:
                handle.write(SITECUSTOMIZE.format(out=out))
            print(f"{phase}:", flush=True)
            for label, argv in consumers:
                run_consumer(label, argv, tree, env)
            reached[phase] = read_records(out)
        return list_functions(os.path.join(src, "repro")), reached
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def report(functions: List[Function], reached: Dict[str, Set], show: bool) -> None:
    product, tier1 = reached["product"], reached["tier-1"]
    categories = ("product", "tier-1 only", "unreached")
    totals = {name: [0, 0] for name in categories}
    per_file: Dict[str, Dict[str, List[int]]] = defaultdict(
        lambda: {name: [0, 0] for name in categories}
    )
    members: Dict[str, List[Function]] = defaultdict(list)
    for function in functions:
        key = (function.path, function.first, function.name)
        category = (
            "product" if key in product
            else "tier-1 only" if key in tier1
            else "unreached"
        )
        for bucket in (totals[category], per_file[function.path][category]):
            bucket[0] += 1
            bucket[1] += function.lines
        members[category].append(function)
    count = len(functions)
    lines = sum(function.lines for function in functions)
    print(f"\n{count} functions under src/repro, {lines} lines inside them")
    for name in categories:
        print(f"  {name:<12} {totals[name][0]:>5} functions {totals[name][1]:>6} lines")
    print(f"\n{'file':<44} {'funcs':>5} {'tier-1 only':>13} {'unreached':>13}")
    for path in sorted(per_file):
        cells = per_file[path]
        if not (cells["tier-1 only"][0] or cells["unreached"][0]):
            continue
        total = sum(cell[0] for cell in cells.values())
        print(
            f"{path:<44} {total:>5} "
            f"{cells['tier-1 only'][0]:>4} ({cells['tier-1 only'][1]:>4} l) "
            f"{cells['unreached'][0]:>4} ({cells['unreached'][1]:>4} l)"
        )
    if show:
        for name in ("tier-1 only", "unreached"):
            print(f"\n{name}:")
            for function in members[name]:
                print(f"  {function.path}:{function.first} {function.name} "
                      f"({function.lines} lines)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", default=HERE,
                        help="tree to census (default: this checkout)")
    parser.add_argument("--list", action="store_true",
                        help="name every tier-1-only and unreached function")
    args = parser.parse_args(argv)
    started = time.monotonic()
    functions, reached = census(os.path.abspath(args.checkout))
    report(functions, reached, args.list)
    print(f"\ncensus took {time.monotonic() - started:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
