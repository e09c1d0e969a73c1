"""The benchmark's four workloads.

Each workload has three parts, kept apart so that only the calls into
sga are timed and every output is checked afterwards:

  * ``setup(seed)`` makes the inputs (cheap; measured as part of setup_s);
  * ``run_pass(inputs, index, timer)`` makes every call of one pass
    through ``timer``, which times the call and captures CLI output;
  * ``check(inputs, outputs)`` returns (items attempted, items failed)
    for one pass's outputs, comparing them with the library or a golden
    file.  It runs outside the timed phase.

Representations are built inside the timed phase, because users pay for
them on every run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random

GOLDEN = Path(__file__).resolve().parent / "golden"


@dataclass
class CliRun:
    code: object  # exit code, or None when the command raised
    stdout: str
    stderr: str
    output_bytes: int


class Timer:
    """Times calls into sga; the sum over a pass is that pass's wall time."""

    def __init__(self):
        self.elapsed = 0.0
        self.output_bytes = 0

    def call(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.elapsed += time.perf_counter() - t0

    def cli(self, argv):
        """Run ``sga.cli.main(argv)`` in-process, capturing stdout and stderr."""
        from sga.cli import main

        out, err = io.StringIO(), io.StringIO()
        code = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.call(main, argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
            except Exception as exc:  # a traceback is a failed item, not a crashed benchmark
                print(f"{type(exc).__name__}: {exc}", file=err)
        nbytes = len(out.getvalue().encode())
        if "-o" in argv:
            path = argv[argv.index("-o") + 1]
            nbytes += os.path.getsize(path) if os.path.exists(path) else 0
        self.output_bytes += nbytes
        return CliRun(code, out.getvalue(), err.getvalue(), nbytes)


# ---------------------------------------------------------------- roundtrip


class Roundtrip:
    """verify_isomorphism on fresh representations, N x metric."""

    name = "roundtrip"
    seeded = False

    def __init__(self, smoke=False):
        self.dims = (4, 6) if smoke else (8, 10)

    def setup(self, seed, workdir):
        return [{"spacelike": n, "metric": m} for n in self.dims for m in ("standard", "alternative")]

    def describe(self, inputs):
        return {"N": list(self.dims), "metrics": ["standard", "alternative"],
                "items_per_pass": sum(_roundtrip_items(c) for c in inputs)}

    def run_pass(self, inputs, index, timer):
        from sga import build_representation, verify_isomorphism

        outputs = []
        for config in inputs:
            try:
                rep = timer.call(build_representation, **config)
                outputs.append(timer.call(verify_isomorphism, rep))
            except Exception as exc:
                outputs.append(exc)
        return outputs

    def check(self, inputs, outputs):
        attempted = failed = 0
        for config, report in zip(inputs, outputs):
            expected = _roundtrip_items(config)
            attempted += expected
            if isinstance(report, Exception):
                failed += expected
                continue
            checked = report["blades_checked"] + report["outer_checked"]
            failed += min(expected, len(report["failures"]) + abs(expected - checked))
        return attempted, failed


def _roundtrip_items(config):
    # every one of the 4**n blades and every one of the 4**n outer products
    return 2 * 4 ** (config["spacelike"] // 2)


# ---------------------------------------------------------------- tables


class Tables:
    """``sga tables --check-period8`` against a golden Markdown copy."""

    name = "tables"
    seeded = False

    def __init__(self, smoke=False):
        if smoke:  # period 8 needs nine consecutive keys
            self.argv = ["tables", "--check-period8", "--max-dim", "9", "--km-min", "0", "--km-max", "8"]
            self.rows_per_table, self.golden = 9, GOLDEN / "tables-smoke.md"
        else:
            self.argv = ["tables", "--check-period8"]
            self.rows_per_table, self.golden = 17, GOLDEN / "tables.md"

    def setup(self, seed, workdir):
        return {"golden": self.golden.read_text()}

    def describe(self, inputs):
        return {"argv": self.argv, "items_per_pass": 3 * self.rows_per_table}

    def run_pass(self, inputs, index, timer):
        return timer.cli(self.argv)

    def check(self, inputs, run):
        attempted = 3 * self.rows_per_table
        golden = inputs["golden"]
        if run.code != 0:
            return attempted, attempted
        if run.stdout == golden:
            return attempted, 0
        want, got = _sections(golden), _sections(run.stdout)
        bad = sum(1 for i, sec in enumerate(want) if i >= len(got) or got[i] != sec)
        return attempted, min(attempted, max(1, bad) * self.rows_per_table)


def _sections(text):
    sections = []
    for line in text.splitlines(keepends=True):
        if line.startswith("### ") or not sections:
            sections.append("")
        sections[-1] += line
    return sections


# ---------------------------------------------------------------- identities


# checks per suite; every seed must give exactly these counts
IDENTITY_CHECKS = {
    "pauli": 5,
    "dirac": 16,
    "rotors": 21,
    "conjugation": 28,
    "sign-laws": 19,
    "exclusion": 3,
    "odd-dimensions": 7,
    "traces-chains": 2,
}


class Identities:
    """``sga verify --suite S --seed s`` for the eight light suites, one seed per pass."""

    name = "identities"
    seeded = True

    def __init__(self, smoke=False):
        pass

    def setup(self, seed, workdir):
        rng = Random(seed)
        return {"seeds": [rng.randrange(1, 2**31) for _ in range(1000)]}

    def describe(self, inputs):
        return {"suites": list(IDENTITY_CHECKS), "first_seeds": inputs["seeds"][:4],
                "items_per_pass": sum(IDENTITY_CHECKS.values())}

    def run_pass(self, inputs, index, timer):
        seed = str(inputs["seeds"][index % len(inputs["seeds"])])
        return [timer.cli(["verify", "--suite", suite, "--seed", seed]) for suite in IDENTITY_CHECKS]

    def check(self, inputs, runs):
        attempted = failed = 0
        for suite, run in zip(IDENTITY_CHECKS, runs):
            expected = IDENTITY_CHECKS[suite]
            attempted += expected
            lines = run.stdout.splitlines()
            passed = sum(1 for line in lines if line.startswith("PASS  "))
            failing = sum(1 for line in lines if line.startswith("FAIL  "))
            consistent = run.code == (1 if failing else 0) and passed + failing == expected
            failed += expected - passed if consistent else expected
        return attempted, failed


# ---------------------------------------------------------------- build-io


class BuildIO:
    """``sga build`` to a file, then ``sga decompose`` on entries of it and on a random input."""

    name = "build-io"
    seeded = True
    keys = ("C", "pseudoscalar", "gamma_chiral_3")
    bases = ("blades", "outer")
    density = 0.4

    def __init__(self, smoke=False):
        self.K, self.random_K = (6, 4) if smoke else (13, 8)
        self._expected = None

    def setup(self, seed, workdir):
        dim = 2 ** (self.random_K // 2)  # even K: one spinor bit per plane
        rng = Random(seed)
        entries = [[_random_entry(rng, self.density) for _ in range(dim)] for _ in range(dim)]
        random_path = os.path.join(workdir, "random.json")
        with open(random_path, "w") as fh:
            json.dump([[_scalar_json(e) for e in row] for row in entries], fh)
        return {"workdir": workdir, "random_path": random_path, "random_entries": entries}

    def describe(self, inputs):
        nnz = sum(1 for row in inputs["random_entries"] for e in row if any(e[:4]))
        return {"K": self.K, "entries": list(self.keys), "random_K": self.random_K,
                "random_dim": len(inputs["random_entries"]), "random_nnz": nnz,
                "items_per_pass": 1 + len(self.bases) * (len(self.keys) + 1)}

    def run_pass(self, inputs, index, timer):
        workdir = inputs["workdir"]
        build_path = os.path.join(workdir, "build.json")
        runs = {"build": timer.cli(["build", "-K", str(self.K), "-o", build_path])}
        # untimed glue: hand three entries of the build output to decompose verbatim
        try:
            with open(build_path) as fh:
                data = json.load(fh)
            paths = {}
            for key in self.keys:
                paths[key] = os.path.join(workdir, f"{key}.json")
                with open(paths[key], "w") as fh:
                    json.dump(data[key], fh)
            del data
        except (OSError, ValueError, KeyError) as exc:
            runs["build"].stderr += f"unreadable build output: {exc}\n"
            runs["build"].code = None
            paths = {}
        for key, path in paths.items():
            for basis in self.bases:
                argv = ["decompose", "-K", str(self.K), "--input", path, "--basis", basis]
                runs[(key, basis)] = timer.cli(argv)
        for basis in self.bases:
            argv = ["decompose", "-K", str(self.random_K), "--input", inputs["random_path"], "--basis", basis]
            runs[("random", basis)] = timer.cli(argv)
        return runs

    def expected(self, inputs):
        """Library decompositions of freshly built matrices, computed once per run."""
        if self._expected is None:
            from sga import Matrix, Scalar, build_representation

            rep = build_representation(spacelike=self.K)
            matrices = {"C": rep.C, "pseudoscalar": rep.pseudoscalar, "gamma_chiral_3": rep.gamma_chiral(3)}
            out = {}
            for key in self.keys:
                for basis in self.bases:
                    out[(key, basis)] = _library_decompose(rep, matrices[key], basis)
            small = build_representation(spacelike=self.random_K)
            m = Matrix([[Scalar(*e) for e in row] for row in inputs["random_entries"]])
            for basis in self.bases:
                out[("random", basis)] = _library_decompose(small, m, basis)
            self._expected = out
        return self._expected

    def check(self, inputs, runs):
        from sga import Scalar

        expected = self.expected(inputs)
        attempted = 1 + len(expected)
        failed = 0 if runs["build"].code == 0 else 1
        for label, want in expected.items():
            run = runs.get(label)
            try:
                ok = run is not None and run.code == 0 and {
                    k: Scalar.from_json(v) for k, v in json.loads(run.stdout).items()
                } == want
            except (ValueError, TypeError, KeyError, AttributeError):
                ok = False
            failed += not ok
        return attempted, failed


def _library_decompose(rep, m, basis):
    from sga import decompose_multivector, spinor_outer_decompose

    if basis == "blades":
        return {blade.label(): c for blade, c in decompose_multivector(rep, m).items()}
    return {f"{a},{b}": c for (a, b), c in spinor_outer_decompose(rep, m).items()}


def _random_entry(rng, density):
    """(a, b, c, d, q) of ((a + b*sqrt2) + i*(c + d*sqrt2)) / q, zero with probability 1 - density."""
    if rng.random() >= density:
        return (0, 0, 0, 0, 1)
    while True:
        e = (rng.randint(-2, 2), rng.randint(-1, 1), rng.randint(-2, 2), rng.randint(-1, 1), rng.choice((1, 2)))
        if any(e[:4]):
            return e


def _scalar_json(e):
    a, b, c, d, q = e
    return {"re": [str(Fraction(a, q)), str(Fraction(b, q))], "im": [str(Fraction(c, q)), str(Fraction(d, q))]}


WORKLOADS = {w.name: w for w in (Roundtrip, Tables, Identities, BuildIO)}
