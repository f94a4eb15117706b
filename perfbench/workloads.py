"""The four workloads.

Each builds its corpus in set-up and lists its operations; `account`
records the per-layer counts of one output in the traced run, `fingerprint`
is compared between rounds (every round repeats the same operations), and
`check` runs the full output checks on the first round's outputs after the
timed phase.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from functools import partial

import numpy as np

import checks
import corpus
import reference
from multispec.asymptotics import (app_template, canonical_family,
                                   remainder_exponent, structure_of,
                                   verify_estimate)
from multispec.deformation import deformation, point, rank_and_normalize
from multispec.levels import (build_generalized_levels, build_levels,
                              evaluate_level)
from multispec.linear import cone_feasible
from multispec.monomials import ZERO, Monomial, Pair, tau
from multispec.multicone import (build_multicone, closure,
                                 contraction_stable_check, normal_cone_probe,
                                 project, sample_members)
from multispec.polynomials import exp_truncation, poly_monomial
from multispec.semigroup import eliminate_lambda, equivalent, run_pipeline

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
EPS = 0.1


def matrix(rows):
    """The deformation of an action matrix.  Random matrices may repeat a
    row, which the program allows with a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return deformation(rows)


def leaves(e) -> int:
    return 1 if e.kind == "mono" else sum(leaves(c) for c in e.children)


def stages_of(pl) -> list:
    return [pl.G] + [s for _, s in pl.F0_stages] + [s for _, s in pl.F_stages]


def account_stages(tr, pl) -> None:
    sizes = [len(s) for s in stages_of(pl)]
    tr.peak("semigroup.stage_max", max(sizes))
    tr.count("semigroup.stage_total", sum(sizes))


def check_pipeline(pl, rng) -> list[str]:
    # Sorted, so that the seeded sample does not depend on set order.
    stages = [[checks.exps_of(q) for q in sorted(s, key=Pair.sort_key)]
              for s in stages_of(pl)]
    return checks.check_no_lambda([checks.exps_of(q) for q in pl.Fq]) + \
        checks.check_stage_cones(stages, rng)


class Workload:
    # Operations are timed in CPU seconds of the process that does the work
    # (and then scaled by the reference task): on a shared virtual machine,
    # wall time also counts the time the host takes the CPU away.
    clock = staticmethod(time.process_time)
    ref_task = staticmethod(reference.in_process)
    nominal_s = reference.IN_PROCESS_S
    # Rounds repeat until the run length has passed and at least this many
    # rounds ran, so that each operation's median time has three samples.
    min_rounds = 3
    shuffle = True

    def __init__(self, tr):
        self.tr = tr
        self.ops: list[tuple[str, object]] = []

    def warm_up(self) -> None:
        """One untimed operation of each kind."""
        seen = set()
        for op_id, fn in self.ops:
            kind = op_id.split("-")[0]
            if kind not in seen:
                seen.add(kind)
                fn()

    def account(self, op_id, out) -> None:
        pass

    def failed(self, op_id, out) -> bool:
        return False

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Decide(Workload):
    """run_pipeline then equivalent(Fq, G), plus negative controls."""

    def __init__(self, tr):
        super().__init__(tr)
        self.controls: dict[str, tuple] = {}
        for inst in corpus.decide_corpus():
            d, p = matrix(inst["A"]), point(zero_blocks=inst["zeros"])
            self.ops.append((inst["id"], partial(self.decide, d, p)))
            if len(self.controls) < corpus.CONTROLS:
                pl = run_pipeline(d, None, p)
                extra = self.outside_generator(pl)
                if extra is not None:
                    op_id = "control-" + inst["id"]
                    a = pl.Fq | {extra}
                    self.controls[op_id] = (a, pl.G, pl.zero_cols_L, extra)
                    self.ops.append((op_id, partial(
                        self.control, a, pl.G, pl.zero_cols_L)))

    @staticmethod
    def outside_generator(pl):
        """A zero-valued unit scale monomial outside the rational cone of the
        parameter-free part of G, usable as a probe under the zero
        pattern; None when the cone leaves no such direction."""
        free = eliminate_lambda(pl.G)
        keys = sorted({v for q in free for v, _ in q.f.exps}
                      | {tau(k) for k in range(1, pl.d.m + 1)},
                      key=lambda v: v.key())
        cols = [[q.f.exponent(v) for v in keys] for q in free]
        for k in range(1, pl.d.m + 1):
            for sign in (1, -1):
                if sign < 0 and k in pl.zero_cols_L:
                    continue
                g = Pair(Monomial.from_dict({tau(k): sign}), ZERO)
                if not cone_feasible(cols, [g.f.exponent(v) for v in keys]):
                    return g
        return None

    def decide(self, d, p):
        with self.tr.span("semigroup.pipeline"):
            pl = run_pipeline(d, None, p)
        with self.tr.span("semigroup.equivalent"):
            verdict = equivalent(pl.Fq, pl.G, zero_slack=pl.zero_cols_L)
        return pl, verdict

    def control(self, a, b, slack):
        with self.tr.span("semigroup.equivalent"):
            return equivalent(a, b, zero_slack=slack)

    def account(self, op_id, out) -> None:
        """Probes posed: every probe of both sides for a YES verdict, and up
        to the added generator (the first NO) for a control."""
        if op_id in self.controls:
            a, _, slack, extra = self.controls[op_id]
            probes = checks.semigroup_probes(eliminate_lambda(a), slack)
            self.tr.count("semigroup.probes", probes.index(extra) + 1
                          if extra in probes else len(probes))
            return
        pl, _ = out
        account_stages(self.tr, pl)
        slack = pl.zero_cols_L
        self.tr.count("semigroup.probes", sum(
            len(checks.semigroup_probes(eliminate_lambda(s), slack))
            for s in (pl.Fq, pl.G)))

    def fingerprint(self, op_id, out):
        if op_id in self.controls:
            return out.value
        pl, verdict = out
        return verdict.value, tuple(len(s) for s in stages_of(pl))

    def check(self, op_id, out, rng) -> list[str]:
        if op_id in self.controls:
            a, b, slack, extra = self.controls[op_id]
            return checks.check_equivalent_no(
                eliminate_lambda(a), eliminate_lambda(b), extra, slack, out)
        pl, verdict = out
        problems = checks.check_equivalent_yes(
            eliminate_lambda(pl.Fq), eliminate_lambda(pl.G), pl.zero_cols_L,
            verdict)
        problems += check_pipeline(pl, rng)
        if op_id == corpus.LINEALITY_INSTANCE and not checks.has_lineality(
                [checks.exps_of(q) for q in pl.Fq]):
            problems.append("the stage cone has no lineality space")
        return problems


class Eliminate(Workload):
    """The elimination chain on the stress tier, and the generalized level
    family on smaller matrices."""

    def __init__(self, tr):
        super().__init__(tr)
        self.rows: dict[str, list] = {}
        for inst in corpus.eliminate_corpus():
            d, p = matrix(inst["A"]), point(zero_blocks=inst["zeros"])
            self.rows[inst["id"]] = d.A
            fn = self.chain if inst["kind"] == "chain" else self.generalized
            self.ops.append((inst["id"], partial(fn, d, p)))

    def chain(self, d, p):
        tr = self.tr
        with tr.span("semigroup.pipeline"):
            pl = run_pipeline(d, None, p)
        with tr.span("levels.build"):
            fam = build_levels(pl)
        with tr.span("multicone.build"):
            system = build_multicone(pl, p, check_equivalence=False)
        with tr.span("multicone.closure"):
            cl = closure(pl, rounds=1)
        k = pl.r.sel_cols[-1]
        with tr.span("multicone.project"):
            proj = project(system, k)
        orders = tuple(1 if j < corpus.REMAINDER_ORDERS else 0
                       for j in range(d.ell))
        with tr.span("asymptotics.remainder"):
            rem = remainder_exponent(fam, orders, pl.r.sigma_A)
        return pl, fam, cl, k, proj, rem

    def generalized(self, d, p):
        with self.tr.span("levels.generalized"):
            return build_generalized_levels(d, rank_and_normalize(d, p), p)

    def account(self, op_id, out) -> None:
        tr = self.tr
        if op_id.startswith("generalized"):
            tr.count("levels.leaves", sum(map(leaves, out.rho_Lambda.values())))
            return
        pl, fam, cl, _, proj, _ = out
        account_stages(tr, pl)
        tr.count("levels.leaves", sum(map(leaves, fam.rho_Lambda.values())))
        tr.count("multicone.closure_entries", len(cl.entries))
        tr.count("multicone.project_rows", len(proj.inequalities))

    def fingerprint(self, op_id, out):
        if op_id.startswith("generalized"):
            return sum(map(leaves, out.rho_Lambda.values()))
        pl, fam, cl, _, proj, rem = out
        return (tuple(len(s) for s in stages_of(pl)), len(cl.entries),
                len(proj.inequalities), leaves(rem))

    def check(self, op_id, out, rng) -> list[str]:
        a = self.rows[op_id]
        if op_id.startswith("generalized"):
            return checks.check_orbit_decay(out.rho_Lambda, a)
        pl, fam, cl, k, proj, _ = out
        return (check_pipeline(pl, rng)
                + checks.check_level_roundtrip(fam.rho_Lambda, a,
                                               pl.r.sel_cols, rng)
                + checks.check_closure_factors(cl.entries)
                + checks.check_projection(proj, k))


class GraphSet:
    """Points of a graph z_t = product of other blocks (or 0), drawn
    log-uniformly in the free blocks below the probe scale."""

    def __init__(self, m: int, equation: str):
        lhs, rhs = equation.split("=")
        self.target = int(lhs.strip()[1:])
        self.factors = [] if rhs.strip() == "0" else \
            [int(f.strip()[1:]) for f in rhs.split("*")]
        self.free = [k for k in range(1, m + 1) if k != self.target]

    def rhs(self, z) -> float:
        return math.prod(z[k] for k in self.factors) if self.factors else 0.0

    def sample(self, rng, scale):
        z = {k: float(np.exp(rng.uniform(np.log(scale * 1e-3),
                                         np.log(scale)))) for k in self.free}
        z[self.target] = self.rhs(z)
        return z

    def contains(self, z) -> bool:
        t = z[self.target]
        return abs(t - self.rhs(z)) <= 1e-9 * (1 + abs(t))


class Sample(Workload):
    """The numeric harnesses over the criterion-7 rigs and the fixture
    systems; the symbolic build runs once per rig here, in set-up."""

    def __init__(self, tr):
        super().__init__(tr)
        self.inst: dict[str, dict] = {}
        for inst in corpus.sample_corpus():
            d = matrix(inst["A"])
            norms = {int(k): float(Fraction(v))
                     for k, v in inst.get("norms", {}).items()}
            p = point(norms=norms)
            pl = run_pipeline(d, None, p)
            kind = inst["kind"]
            inst = dict(inst, d=d, pl=pl)
            if kind in ("contraction", "members"):
                inst["system"] = build_multicone(pl, check_equivalence=False)
            if kind == "members":
                inst["family"] = build_levels(pl)
            if kind in ("estimate", "template"):
                s = structure_of(d)
                inst["f"] = poly_monomial(s, (1, 1)) \
                    if inst["function"] == "z1*z2" else exp_truncation(s, 8)
                inst["r"] = rank_and_normalize(d, p)
            if kind == "probe":
                inst["zset_obj"] = GraphSet(d.m, inst["zset"])
                inst["p"] = p
            self.inst[inst["id"]] = inst
            self.ops.append((inst["id"], partial(getattr(self, kind), inst)))

    def contraction(self, inst):
        with self.tr.span("multicone.contraction"):
            return contraction_stable_check(inst["system"], inst["samples"],
                                            rng_seed=inst["rng_seed"],
                                            eps=EPS)

    def members(self, inst):
        rng = np.random.default_rng(inst["rng_seed"])
        with self.tr.span("multicone.sample"):
            pts = sample_members(inst["system"], inst["samples"], EPS, rng)
        rho = inst["family"].rho_Lambda
        with self.tr.span("levels.evaluate"):
            levels = [{j: evaluate_level(e, q) for j, e in rho.items()}
                      for q in pts]
        return pts, levels

    def estimate(self, inst):
        with self.tr.span("asymptotics.estimate"):
            return verify_estimate(inst["d"], inst["r"], point(), inst["f"],
                                   tuple(inst["N"]), samples=inst["samples"],
                                   eps=EPS, seed=inst["rng_seed"])

    def template(self, inst):
        with self.tr.span("asymptotics.template"):
            fam = canonical_family(inst["f"], inst["d"])
            return app_template(inst["d"], inst["r"], tuple(inst["N"]), fam)

    def probe(self, inst):
        with self.tr.span("multicone.probe"):
            return normal_cone_probe(inst["pl"], inst["p"], inst["zset_obj"],
                                     samples=inst["samples"], seed=0)

    def failed(self, op_id, out) -> bool:
        inst = self.inst[op_id]
        return inst.get("underflow", False) and out.sampled < inst["samples"]

    def account(self, op_id, out) -> None:
        if self.inst[op_id]["kind"] == "template":
            self.tr.count("asymptotics.template_terms", len(out.terms))

    def fingerprint(self, op_id, out):
        kind = self.inst[op_id]["kind"]
        if kind == "contraction":
            return out.sampled, out.violations
        if kind == "members":
            return len(out[0]), sum(sum(q.values()) for q in out[0])
        if kind == "estimate":
            return out.passed, out.C_fit, out.C_half
        if kind == "template":
            return out.terms
        return out.outcome.value

    def check(self, op_id, out, rng) -> list[str]:
        inst = self.inst[op_id]
        kind = inst["kind"]
        if kind == "contraction":
            problems = [] if out.sampled == inst["samples"] else \
                [f"sampled {out.sampled} of {inst['samples']}"]
            if out.violations or out.checked != out.sampled:
                problems.append(f"{out.violations} contraction violations")
            return problems
        if kind == "members":
            pts, levels = out
            return (checks.check_members(inst["system"], pts,
                                         inst["samples"], EPS)
                    + checks.check_value_roundtrip(levels, pts, inst["A"],
                                                   inst["pl"].r.sel_cols))
        if kind == "estimate":
            return [] if out.passed else ["the remainder estimate fails"]
        if kind == "template":
            want = checks.brute_template(
                inst["f"].terms, inst["A"], inst["d"].block_dims,
                inst["r"].sigma_A, inst["N"])
            return checks.check_template(out.terms, want)
        return [] if out.outcome.value == inst["expect"] else \
            [f"probe outcome {out.outcome.value}, expected {inst['expect']}"]


LAUNCH = ("import sys, time; t = time.process_time(); "
          "from multispec.cli import main; "
          "sys.stderr.write('import_s %r\\n' % (time.process_time() - t)); "
          "sys.exit(main())")


class CliSession(Workload):
    """Cold `multispec --format json <subcommand>` processes, one at a time."""

    clock = staticmethod(reference.children_cpu)
    ref_task = staticmethod(reference.cold_start)
    nominal_s = reference.COLD_START_S
    min_rounds = 1
    # A session runs in its own order and ends with `fixtures`.
    shuffle = False

    def __init__(self, tr):
        super().__init__(tr)
        self.import_times: list[float] = []
        os.makedirs(OUT_DIR, exist_ok=True)
        spec = os.path.join(OUT_DIR, "map-spec.json")
        with open(spec, "w") as fh:
            json.dump(corpus.MAP_SPEC, fh)
        for call in corpus.cli_corpus():
            args = [spec if a == "MAP_SPEC" else a for a in call["args"]]
            self.ops.append((call["id"], partial(self.call, args)))

    def warm_up(self) -> None:
        self.ops[0][1]()

    def call(self, args):
        cmd = [sys.executable, "-c", LAUNCH, "--format", "json", *args]
        with self.tr.span("cli." + args[0]):
            res = subprocess.run(cmd, capture_output=True, text=True)
        return res.returncode, res.stdout, res.stderr

    def account(self, op_id, out) -> None:
        for line in out[2].splitlines():
            if line.startswith("import_s "):
                self.import_times.append(float(line.split()[1])
                                         * self.tr.scale)

    def fingerprint(self, op_id, out):
        return out[0], out[1]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def check(self, op_id, out, rng) -> list[str]:
        rc, stdout, stderr = out
        if rc != 0:
            return [f"exit {rc}: {stderr.strip()[-200:]}"]
        if op_id.startswith("fixtures"):
            last = stdout.strip().splitlines()[-1]
            return [] if last.endswith(" 0 failures") else [last]
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return [f"output is not JSON: {exc}"]
        if not op_id.startswith("pipeline"):
            return []
        stages = [[checks.exps_of_json(q) for q in payload["G"]]]
        stages += [[checks.exps_of_json(q) for q in s["set"]]
                   for s in payload["F0_stages"] + payload["F_stages"]]
        fq = [checks.exps_of_json(q) for q in payload["Fq"]]
        problems = checks.check_no_lambda(fq)
        if stages[-1] != fq:
            problems.append("Fq is not the last stage")
        return problems + checks.check_stage_cones(stages, rng)


WORKLOADS = {"cli-session": CliSession, "decide": Decide,
             "eliminate": Eliminate, "sample": Sample}
