"""Rebuild ``catalog.json``: vetted instances with recorded results.

Run from the repository root (takes about an hour; ``--retime`` about
ten minutes):

    python3 bench/make_catalog.py [--workload cycle|forward|concavity] [--retime]

For every instance class in ``workloads.CLASSES`` the script walks
generator seeds 0, 1, 2, ..., runs the class's pipelines once on each
candidate, and keeps candidates that fit the class: violating datasets
for the ``fail-*`` cycle classes, searches that certify after at least
``MIN_CERTIFIED_PROGRAMS`` programs for ``certified`` and searches that
exhaust every assignment for ``undetermined``. The first ``SCAN_FACTOR``
times as many fitting candidates as it keeps are then timed in
``REPEATS`` round-robin rounds (median per candidate), so that a change in
host speed during the scan shifts every candidate alike. It keeps those
whose times lie closest to their median: typical instances of the class,
not its fast or slow tail. Times are rescaled to a fixed host speed, as
the benchmark's are (``run.HostSpeed``), from the speed samples taken
while each instance ran. ``--retime`` only times the catalog's entries
again and rewrites their ``ref_s``. The ladder of classes, not the spread inside
one class, shows how the cost grows with the instance size. ``workloads.pick_entries``
uses the recorded times to give every benchmark seed a pick of about the
same total cost.

Each entry records the generator seed, the verdict or status, and the
exact optimum that later runs must reproduce: the flattest interior
multiplier mass (cycle), the forward value and oracle value (forward) and
the certified assignment (concavity). Work counters that a correct
change may alter (programs solved, pivots) are recorded for reference
only. ``ref_s`` is the median rescaled time measured while building.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402
from infocost import concavity, forward  # noqa: E402

MIN_CERTIFIED_PROGRAMS = 200
MAX_SEEDS = 5000


# Scanning several times as many candidates as are kept finds entries of
# nearly equal cost, so that every benchmark seed's pick costs the same.
SCAN_FACTOR = 6
REPEATS = 3


def keep_count(workload: str, cls: str) -> int:
    """Twice as many entries as any pass draws, and at least four."""
    drawn = max(comp.get(cls, 0) for comp in workloads.COMPOSITION[workload].values())
    return max(4, 2 * drawn)


def cycle_candidate(cls: str, spec: dict, seed: int):
    ds = workloads.cycle_dataset(spec, seed)
    if spec["construction"] == "swap":
        verdict, _ = workloads.reject_pipeline(ds)
        if verdict.passed:
            return None
        entry = {"seed": seed, "verdict": "fail",
                 "rows": len(verdict.system.rows), "cols": len(verdict.system.columns)}
        return entry, lambda: workloads.reject_pipeline(ds)
    _, _, verdict = workloads.check_pipeline(ds)
    flat, audit = workloads.recover_pipeline(ds)
    if not (verdict.passed and flat.passed and audit.all_ok):
        raise RuntimeError(f"generated dataset {cls}/{seed} not rationalized")
    entry = {"seed": seed, "verdict": "pass",
             "flattest_mass": str(workloads.interior_mass(flat)),
             "rows": len(flat.system.rows), "cols": len(flat.system.columns)}
    return entry, lambda: (workloads.check_pipeline(ds), workloads.recover_pipeline(ds))


def forward_candidate(cls: str, spec: dict, seed: int):
    instance = workloads.forward_instance(spec, seed)
    if spec["kind"] == "generate":
        return {"seed": seed}, lambda: forward.generate_dataset(*instance)
    solution = forward.solve_forward(instance)
    entry = {"seed": seed, "grid_points": len(instance.grid), "value": str(solution.value)}
    if spec["kind"] == "solve":
        return entry, lambda: forward.solve_forward(instance)
    entry["oracle"] = str(forward.oracle_value(instance, spec["resolution"]))
    return entry, lambda: forward.oracle_value(instance, spec["resolution"])


def concavity_candidate(cls: str, spec: dict, seed: int):
    ds = workloads.concavity_dataset(spec, seed)
    verdict = concavity.certify_concave(ds, budget=workloads.CONCAVITY_BUDGET)
    if cls == "certified" and not (
        verdict.status == concavity.CERTIFIED
        and verdict.programs_solved >= MIN_CERTIFIED_PROGRAMS
    ):
        return None
    if cls == "undetermined" and verdict.status != concavity.UNDETERMINED:
        return None
    entry = {"seed": seed, "status": verdict.status, "programs": verdict.programs_solved}
    if verdict.assignment is not None:
        entry["assignment"] = list(verdict.assignment)
    return entry, lambda: concavity.certify_concave(ds, budget=workloads.CONCAVITY_BUDGET)


CANDIDATE = {
    "cycle": cycle_candidate,
    "forward": forward_candidate,
    "concavity": concavity_candidate,
}


def time_round_robin(works: list) -> list[float]:
    """Median rescaled seconds of each work, over ``REPEATS`` rounds through all."""
    host = run.HostSpeed()
    times: list[list[float]] = [[] for _ in works]
    with host.sampling():
        for _ in range(REPEATS):
            for work, mine in zip(works, times):
                mark = host.start()
                work()
                mine.append(host.stop(mark)[1])
    return [statistics.median(t) for t in times]


def build_class(workload: str, cls: str) -> list[dict]:
    keep = keep_count(workload, cls)
    scan = SCAN_FACTOR * keep
    spec = workloads.CLASSES[workload][cls]
    found, works = [], []
    for seed in range(MAX_SEEDS):
        got = CANDIDATE[workload](cls, spec, seed)
        if got is None:
            continue
        found.append(got[0])
        works.append(got[1])
        print(f"{workload}/{cls}: seed {seed} fits", file=sys.stderr, flush=True)
        if len(found) == scan:
            break
    if len(found) < keep:
        raise RuntimeError(f"{workload}/{cls}: only {len(found)} candidates")
    for entry, seconds in zip(found, time_round_robin(works)):
        entry["ref_s"] = round(seconds, 4)
    return select(found, keep)


def retime_class(workload: str, cls: str, entries: list[dict]) -> list[dict]:
    """The entries with ``ref_s`` measured again; every other field must repeat."""
    spec = workloads.CLASSES[workload][cls]
    works = []
    for entry in entries:
        got = CANDIDATE[workload](cls, spec, entry["seed"])
        if got is None or any(entry[k] != v for k, v in got[0].items()):
            raise RuntimeError(f"{workload}/{cls}: seed {entry['seed']} no longer repeats")
        works.append(got[1])
    for entry, seconds in zip(entries, time_round_robin(works)):
        entry["ref_s"] = round(seconds, 4)
        print(f"{workload}/{cls}: seed {entry['seed']} {entry['ref_s']} s",
              file=sys.stderr, flush=True)
    return entries


def select(found: list[dict], keep: int) -> list[dict]:
    """The ``keep`` entries whose times lie closest to the median, by ratio."""
    middle = statistics.median(e["ref_s"] for e in found)
    found = sorted(found, key=lambda e: (abs(math.log(e["ref_s"] / middle)), e["seed"]))
    return sorted(found[:keep], key=lambda e: e["seed"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(CANDIDATE), action="append")
    parser.add_argument("--retime", action="store_true",
                        help="only time the catalog's entries again")
    args = parser.parse_args()
    path = workloads.CATALOG_PATH
    catalog = json.loads(path.read_text()) if path.exists() else {}
    for workload in args.workload or CANDIDATE:
        catalog[workload] = {
            cls: retime_class(workload, cls, catalog[workload][cls]) if args.retime
            else build_class(workload, cls)
            for cls in workloads.CLASSES[workload]
        }
        path.write_text(json.dumps(catalog, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
