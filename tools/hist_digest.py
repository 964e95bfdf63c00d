"""One sha256 per benchmark workload over every histogram it builds.

    python tools/hist_digest.py --seed 2020 --seed 7
    python tools/hist_digest.py --root /path/to/other/checkout --seed 2020

For each workload of ``benchmarks/e2e`` this builds the deployment the
benchmark builds, runs one epoch of its requests (the writes of
``service_rw_mix`` included), and prints two digests: one right after
set-up and one after the epoch.  Each covers every region histogram (a row
of the object's histogram table) and every object's global histogram — the
merged histogram, each region histogram coarsened to its width and the
region extrema — field by field: width, start, extrema (as ``float.hex``,
so -0.0 is not 0.0) and the int64 counts.  A change to how histograms are
built must print the same lines as its parent.  ``--root`` measures
another checkout's ``src`` and benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import pathlib
import sys

WORKLOADS = ("selective_reads", "broad_scans", "service_reads", "service_rw_mix")


def _feed(h, hist) -> None:
    for value in (hist.bin_width, hist.start, hist.data_min, hist.data_max):
        h.update(float(value).hex().encode())
    h.update(hist.counts.astype("<i8").tobytes())


def digest(system) -> str:
    h = hashlib.sha256()
    for name in sorted(system.objects):
        meta = system.objects[name].meta
        regions = [meta.histograms.view(rid) for rid in range(meta.histograms.n_regions)]
        for rid, region in enumerate(regions):
            h.update(f"{name}/{rid}".encode())
            _feed(h, region)
        merged = meta.global_histogram.merged
        _feed(h, merged)
        for rid, region in enumerate(regions):
            h.update(str(rid).encode())
            _feed(h, region.coarsened(merged.bin_width))
        # The region extrema as (region id, (min, max)) pairs: the form the
        # digest has always hashed, so its lines compare across checkouts.
        h.update(repr(sorted(
            (rid, (region.data_min, region.data_max)) for rid, region in enumerate(regions)
        )).encode())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=pathlib.Path,
                    default=pathlib.Path(__file__).resolve().parent.parent)
    ap.add_argument("--seed", type=int, action="append", required=True)
    args = ap.parse_args(argv)
    sys.path[:0] = [str(args.root / "src"), str(args.root / "benchmarks" / "e2e")]
    from worker import Runner
    from workloads import make_workload

    for seed in args.seed:
        for name in WORKLOADS:
            workload = make_workload(name, seed)
            built = {}

            def build(arrays, clock, inner=workload.build):
                dep = inner(arrays, clock)
                built["dep"], built["setup"] = dep, digest(dep.system)
                return dep

            workload.build = build
            epoch = Runner(workload).epoch()
            print(f"{name} seed={seed} setup={built['setup']} "
                  f"after={digest(built['dep'].system)} failed={epoch.failed}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
