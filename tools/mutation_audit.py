"""Mutation audit of the gates: which one-line faults does tier-1 catch?

Each mutant replaces one expression in ``src/rcpotts``.  For every mutant a
fresh copy of HEAD (``git archive``) is made in a temporary directory, the
mutant is applied to it and the tier-1 suite runs against the copy, stopping
at its first failure.  A mutant is killed when a test fails and survives when
every test passes.  The unmutated copy runs first and must pass.

    python tools/mutation_audit.py

Uncommitted changes are not audited: commit them first.  Each run takes about as long as
tier-1 for a survivor and less for a killed mutant.  Exits 1 if the
unmutated copy fails, 2 if a mutant no longer applies (its line changed),
3 if not but a mutant survives, else 0.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file under src/rcpotts, the text replaced, its replacement); the
# text must occur exactly once in the file.
MUTANTS = [
    ("FKG at half its threshold", "association.py",
     "d * _masses(tables, events[i] & events[j]) < masses[i] * masses[j]",
     "2 * d * _masses(tables, events[i] & events[j]) < masses[i] * masses[j]"),
    ("corr-conn passing at any deviation up to 1/100", "measures.py",
     '"pass": max_dev == 0,', '"pass": max_dev <= Fraction(1, 100),'),
    ("partition identity always passing", "measures.py",
     '"pass": dev == 0,', '"pass": True,'),
    ("comparison check always passing", "association.py",
     '"pass": all(r["pass"] for r in results.values()),', '"pass": True,'),
    ("UST rate bound doubled", "association.py",
     "reached = tvs[-1] <= Fraction(", "reached = tvs[-1] <= 2 * Fraction("),
    ("UCS and USF targets multiplied by 10", "association.py",
     "reached = tvs[-1] < final_tv", "reached = tvs[-1] < 10 * final_tv"),
    ("Simon's inequality against twice its right side", "flows.py",
     "rhs = sum(phi[x, y] * phi[y, z] for y in w)", "rhs = 2 * sum(phi[x, y] * phi[y, z] for y in w)"),
    ("bridge class's factor without its x term", "polynomials.py",
     "value *= x + geo[k] - 1", "value *= geo[k] - 1"),
    ("argsort dropped from the first-met key order", "graphs.py",
     "order += slots[np.argsort(first)].tolist()", "order += slots.tolist()"),
    ("class branched as a single edge", "polynomials.py",
     "geo[k] * minor(n - 1,", "minor(n - 1,"),
    ("redrawn 32-bit halves accepted by the spin-draw table", "coupling.py",
     "np.flatnonzero(prods.astype(np.uint32) < _U32 % q).tolist())", "[])"),
    ("kept half dropped at a refill", "coupling.py",
     "self._below = np.flatnonzero(self._words <= self._cut).tolist()",
     "self._below, self._half = np.flatnonzero(self._words <= self._cut).tolist(), None"),
    ("small-input tally counting a hit when the labels differ", "graphs.py",
     "if labels[x] == labels[y]:", "if labels[x] != labels[y]:"),
    ("vertex check accepting x == g.n", "graphs.py",
     "if not all(0 <= x < self.n for x in vertices):", "if not all(0 <= x <= self.n for x in vertices):"),
    ("batch error with ddof = 0", "coupling.py",
     "batches.std(ddof=1)", "batches.std(ddof=0)"),
    ("zero-temperature check always passing", "measures.py",
     '"pass": monotone and final_ok,', '"pass": True,'),
    ("compflow identity at 10 times its allowance", "flows.py",
     '"pass": deviation <= allowed,', '"pass": deviation <= 10 * allowed,'),
    ("orientation invariance always passing", "flows.py",
     '"pass": len(set(counts)) <= 1,', '"pass": True,'),
    ("integer-q reader accepting a non-integer", "measures.py",
     "2 <= q < math.inf and q == int(q)", "2 <= q < math.inf"),
    ("probability reader accepting p = 1", "measures.py",
     "if not 0 < p < 1:", "if not 0 < p <= 1:"),
    ("real-q reader accepting q = 0", "measures.py",
     "if not q > 0:", "if not q >= 0:"),
    ("Tutte/random-cluster identity always passing", "measures.py",
     '"pass": dev_rc == 0,', '"pass": True,'),
    ("Tutte/Potts side of that identity ignored", "measures.py",
     'report["pass"] = report["pass"] and dev_p == 0', 'report["pass"] = report["pass"]'),
    ("NA implication chain always passing", "association.py",
     '"pass": chain_ok,', '"pass": True,'),
    ("Feder-Mihail check always passing", "association.py",
     '"pass": ok,', '"pass": True,'),
    ("K_n rate convergence always passing", "asymptotics.py",
     '"pass": monotone and gaps[-1] < 0.2,', '"pass": True,'),
    ("binomial shift with the power of s at j", "polynomials.py",
     "s ** (e - j)", "s ** j"),
    ("binomial shift without the binomial factor", "polynomials.py",
     "comb(e, j) * s ** (e - j)", "s ** (e - j)"),
    ("chromatic sign without r(E)", "polynomials.py",
     "(-1) ** (r_full + i)", "(-1) ** i"),
    ("flow fold with the in and out weights swapped", "flows.py",
     "lo * out + hi * inn", "lo * inn + hi * out"),
    ("flow fold's extension sum with its sign flipped", "flows.py",
     "ext = b * s0 - a * s1", "ext = a * s1 - b * s0"),
    ("flow fold's extension over b^M, not b^(M+1)", "flows.py",
     "(-ext, den * b)", "(-ext, den)"),
    ("each flow sample reading the sorted row at its own position", "flows.py",
     "index[order] = np.cumsum(new) - 1", "index[:] = np.cumsum(new) - 1"),
    ("even extension accepting more than two odd vertices", "flows.py",
     "(count == 2)", "(count >= 2)"),
    ("simon-scan on the pair (0, n - 1) only", "cli.py",
     "for x, z in combinations(range(g.n), 2)", "for x, z in [(0, g.n - 1)] * (g.n > 2)"),
    ("theta accepting lambda = 0", "asymptotics.py",
     "if lam <= 0 or q <= 0:", "if lam < 0 or q <= 0:"),
]

TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


def checkout(dest: Path) -> None:
    """Extract the committed tree of HEAD into ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "HEAD"], check=True, capture_output=True).stdout
    with tempfile.TemporaryFile() as f:
        f.write(archive)
        f.seek(0)
        with tarfile.open(fileobj=f) as tar:
            tar.extractall(dest, filter="data")


def mutate(tree: Path, file: str, old: str, new: str) -> None:
    path = tree / "src" / "rcpotts" / file
    text = path.read_text()
    if text.count(old) != 1:
        raise LookupError(f"{file}: {old!r} occurs {text.count(old)} times, not once")
    path.write_text(text.replace(old, new))


def tier1(tree: Path) -> tuple[bool, str]:
    """(passed, the first failing test or the summary line)."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True).stdout.splitlines()
    failed = [line.split(" - ")[0] for line in out if line.startswith(("FAILED ", "ERROR "))]
    return not failed and any(" passed" in line for line in out), failed[0] if failed else (out[-1] if out else "")


def main() -> int:
    runs = [("unmutated", None)] + [(name, (file, old, new)) for name, file, old, new in MUTANTS]
    killed, survived, status = [], [], 0
    with tempfile.TemporaryDirectory(prefix="mutation-audit-") as work:
        for k, (name, mutant) in enumerate(runs):
            tree = Path(work) / f"copy-{k}"
            checkout(tree)
            try:
                if mutant:
                    mutate(tree, *mutant)
            except LookupError as err:
                print(f"not applied  {name}: {err}", flush=True)
                status = 2
                continue
            start = time.perf_counter()
            passed, detail = tier1(tree)
            shutil.rmtree(tree)
            took = f"{time.perf_counter() - start:.0f} s"
            if mutant is None:
                print(f"{'clean' if passed else 'NOT CLEAN'}  {name} ({took}): {detail}", flush=True)
                if not passed:
                    return 1
            elif passed:
                survived.append(name)
                print(f"survived  {name} ({took}): {detail}", flush=True)
            else:
                killed.append(name)
                print(f"killed    {name} ({took}) by {detail.removeprefix('FAILED ').removeprefix('ERROR ')}", flush=True)
    print(f"{len(killed)} of {len(MUTANTS)} mutants killed; survived: {', '.join(survived) or 'none'}")
    return status or (3 if survived else 0)


if __name__ == "__main__":
    sys.exit(main())
