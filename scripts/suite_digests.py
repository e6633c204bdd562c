"""Print the sha256 of each file the benchmark's ``run_suite`` passes write.

Every pass writes three files (``<exp>.csv``, ``<exp>_fit.csv`` and
``manifest.txt``) and gets one line per file, so two trees whose lines
agree wrote the same bytes, and a change to one file shows as that
file's lines alone in a diff.  For ``decompose`` it instead replays the
layered ``rvar_M`` call of each pass and prints two lines per member
symbol, the digest of its ``layered_to_csv`` text (``layers_<i>.csv``)
and that of its remainder's bytes with ``repr(source_norm)`` and
``j_max`` (``remainder_<i>``), and one line for the bytes of the
``rvar_M`` output (``rvar_M_layered``).  It replays the pass's
``mfcz_decompose`` + ``verify_mfcz`` call and prints one line (``mfcz``)
for the bytes of the good part, each atom's ``start_cell``, ``n_cells``
and ``b_values`` bytes in atom order, and ``repr`` of the ``CZReport``.
It also replays the pass's ``whitney_decompose`` + ``window_system``
call.  One line (``whitney``) hashes the skeleton: each piece's ``lo``,
``hi`` and ``flagged`` in piece order, then ``overlap_count``,
``per_scale_max`` and ``scale_counts``.  The next (``window_system``)
hashes every member's ``phi_lo``, ``window_lo``, ``envelope``, ``slope``
and ``curvature`` reprs and its ``phi_values`` and ``window_values``
bytes, in piece order, then ``slope_max``, ``curvature_max`` and
``mollifier_diags``.  A last line
(``windowed_expand``) replays the pass's ``windowed_expand`` call and
hashes its coefficient, reconstruction and target bytes and
``repr(rel_error)``.  The suites, their configs, the decompose inputs
and the pass seeds come from ``perfbench/workloads.py``, which is only
read.  ``--suites`` defaults to all four workloads.  ``--workers`` is
passed to ``run_suite``, which spreads whole N's over that many threads,
so ``--workers 2`` checks the pool against a serial run.  The library is
imported from ``PYTHONPATH``, so the same script checks any tree:

    PYTHONPATH=src python3 scripts/suite_digests.py --seeds 0-9 --passes 10 > new.txt
    PYTHONPATH=/path/to/other/src python3 scripts/suite_digests.py --seeds 0-9 --passes 10 > old.txt
    diff old.txt new.txt

Output lines are ``<suite> <run seed> <pass seed> <file> <sha256>``.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

SUITES = [name for name, w in workloads.WORKLOADS.items() if isinstance(w, workloads.Suite)]
DECOMPOSE = [name for name, w in workloads.WORKLOADS.items() if isinstance(w, workloads.Decompose)]


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def pass_digests(suite, pass_seed: int, workers: int) -> list[tuple[str, str]]:
    """(file name, sha256) for each file one pass writes."""
    with tempfile.TemporaryDirectory() as out:
        config = suite.config(pass_seed, out)
        workloads.mx.run_suite(config, workers=workers)
        digests = []
        for name in (f"{config.experiment}.csv", f"{config.experiment}_fit.csv", "manifest.txt"):
            with open(os.path.join(out, name), "rb") as fh:
                digests.append((name, hashlib.sha256(fh.read()).hexdigest()))
        return digests


def decompose_digests(work, pass_seed: int, workers: int) -> list[tuple[str, str]]:
    """(name, sha256) for each member's layer CSV and remainder, for the
    layered ``rvar_M`` output, for the mfcz atoms and report, for the
    Whitney skeleton, for the window system and for the windowed
    expansion of one decompose pass;
    ``workers`` is unused."""
    mf = workloads.multifreq
    grid, rng, f, g, sigma, shift, _ = work.inputs(pass_seed)
    spec = workloads.mx.sample_rough_spec(grid, work.SPEC_N, rng, with_symbols=True)
    digests = []
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "layers.csv")
        for i, sym in enumerate(spec.symbols):
            layered = mf.vr_layer_decompose(mf.Spectrum(grid, sym), spec.r, work.LAYER_TOL)
            mf.layered_to_csv(layered, path)
            with open(path, "rb") as fh:
                digests.append((f"layers_{i}.csv", hashlib.sha256(fh.read()).hexdigest()))
            rest = hashlib.sha256(layered.remainder.values.tobytes())
            rest.update(f" {layered.source_norm!r} {layered.j_max}".encode())
            digests.append((f"remainder_{i}", rest.hexdigest()))
    values = mf.rvar_M(f, spec, "layered", tol=work.LAYER_TOL).values
    digests.append(("rvar_M_layered", hashlib.sha256(values.tobytes()).hexdigest()))
    dec = mf.mfcz_decompose(g, 0.5 * math.sqrt(work.MFCZ_N), sigma)
    atoms = hashlib.sha256(dec.good.values.tobytes())
    for atom in dec.atoms:
        atoms.update(f" {atom.start_cell} {atom.n_cells} ".encode())
        atoms.update(atom.b_values.tobytes())
    atoms.update(repr(mf.verify_mfcz(dec)).encode())
    digests.append(("mfcz", atoms.hexdigest()))
    skeleton = mf.whitney_decompose(grid, -work.OMEGA_HALF + shift, work.OMEGA_HALF + shift)
    whitney = hashlib.sha256()
    for p in skeleton.pieces:
        whitney.update(f"{p.lo} {p.hi} {p.flagged} ".encode())
    whitney.update(
        f"{skeleton.overlap_count} {skeleton.per_scale_max} {skeleton.scale_counts!r}".encode()
    )
    digests.append(("whitney", whitney.hexdigest()))
    system = mf.window_system(skeleton)
    windows = hashlib.sha256()
    for w in system.windows:
        fields = (w.phi_lo, w.window_lo, w.envelope, w.slope, w.curvature)
        windows.update(" ".join(map(repr, fields)).encode())
        windows.update(w.phi_values.tobytes())
        windows.update(w.window_values.tobytes())
    windows.update(
        f"{system.slope_max!r} {system.curvature_max!r} {system.mollifier_diags!r}".encode()
    )
    digests.append(("window_system", windows.hexdigest()))
    omega = mf.DyadicFreqInterval(grid, work.EXPAND_K, work.EXPAND_M)
    expansion = mf.windowed_expand(f, omega)
    expand = hashlib.sha256(expansion.coefficients.tobytes())
    expand.update(expansion.reconstruction.values.tobytes())
    expand.update(expansion.target.values.tobytes())
    expand.update(repr(expansion.rel_error).encode())
    digests.append(("windowed_expand", expand.hexdigest()))
    return digests


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = SUITES + DECOMPOSE
    parser.add_argument("--suites", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-9"), help="run seeds, e.g. 0-9")
    parser.add_argument("--passes", type=int, default=10, help="passes per run seed")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)
    print(f"multifreq from {os.path.dirname(workloads.multifreq.__file__)}", file=sys.stderr)
    for name in args.suites:
        for seed in args.seeds:
            for i in range(args.passes):
                ps = workloads.pass_seed(seed, i)
                digests = decompose_digests if name in DECOMPOSE else pass_digests
                for file, digest in digests(workloads.WORKLOADS[name], ps, args.workers):
                    print(name, seed, ps, file, digest, flush=True)


if __name__ == "__main__":
    main()
