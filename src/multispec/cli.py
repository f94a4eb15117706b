"""Command-line front end: scenario loading, per-module subcommands, the
fixture regression runner, and text/json/latex rendering.

Only the layers `pipeline` runs are imported here; every other subcommand
imports its layers in its own body, so a cold call compiles no module it
does not use."""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import warnings
from contextlib import contextmanager
from typing import TYPE_CHECKING

from .deformation import (deformation, point, rank_and_normalize,
                          check_point, classify_action, bundle_decomposition,
                          ActionClass)
from .linear import fr
from .monomials import read_expr, render_genset, sorted_pairs
from .semigroup import run_pipeline

if TYPE_CHECKING:
    from .polynomials import BlockPolynomial, BlockStructure


class ScenarioError(ValueError):
    pass


def _json(source: str):
    """JSON given as a file path or as the text itself."""
    try:
        if os.path.exists(source):
            with open(source) as fh:
                return json.load(fh)
        return json.loads(source)
    except (OSError, ValueError) as exc:
        raise ScenarioError(f"cannot parse JSON {source!r}: {exc}") from exc


@contextmanager
def _reading(what: str):
    """Report a malformed outside value as a ScenarioError (exit status 2)."""
    try:
        yield
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError,
            ZeroDivisionError) as exc:
        raise ScenarioError(f"invalid {what}: {exc}") from exc


def _deformation(data):
    """The action of a scenario object: its matrix "A", rows as written,
    and its optional block sizes, K sets and complement (`deformation`)."""
    if not isinstance(data, dict):
        raise TypeError(f"a scenario is a JSON object, not {json.dumps(data)}")
    if "A" not in data:
        raise ValueError('the scenario has no action matrix "A"')
    return deformation(data["A"], block_dims=data.get("blocks"),
                       K_sets=data.get("K"),
                       complement_block=data.get("complement", ()))


def load_scenario(source: str):
    """Scenario JSON: the action matrix (a list of rows, rationals as
    strings), optional block sizes and vanishing sets, and the base point's
    zero pattern (a list of blocks), norms (an object from blocks to
    rational strings or JSON numbers) and `normalized` flag (a JSON
    boolean), which must fit the matrix (`check_point`)."""
    data = _json(source)
    with _reading("scenario"):
        d = _deformation(data)
        zeros, given = data.get("zeros", []), data.get("norms", {})
        if not isinstance(zeros, list):
            raise TypeError(f"zeros must list blocks, not {json.dumps(zeros)}")
        if not isinstance(given, dict):
            raise TypeError("norms must map blocks to norms, not "
                            f"{json.dumps(given)}")
        norms = {}
        for k, v in given.items():
            if isinstance(v, bool):
                raise TypeError(f"norm of block {k} must be a rational or a "
                                f"number, not {json.dumps(v)}")
            norms[int(k)] = float(fr(v))
        normalized = data.get("normalized", True)
        if not isinstance(normalized, bool):
            raise TypeError("normalized must be true or false, not "
                            f"{json.dumps(normalized)}")
        p = point(zero_blocks=set(zeros), norms=norms, normalized=normalized)
        check_point(d, p)
    return d, p


def parse_block_polynomial(text: str, struct: BlockStructure) -> BlockPolynomial:
    """A polynomial in the block coordinates, e.g. "z1*z2 - 2/3*z1^3":
    `read_expr` over z<k>_<i>, the i-th coordinate of block k, and z<k>,
    its first coordinate; powers are natural numbers."""
    from .polynomials import poly_const, poly_monomial

    def leaf(name: str) -> BlockPolynomial:
        m = re.fullmatch(r"z(\d+)(?:_(\d+))?", name, re.ASCII)
        k, i = (int(m[1]), int(m[2] or 1)) if m else (0, 0)
        if not (1 <= k <= struct.m and 1 <= i <= struct.dims[k - 1]):
            raise ValueError(f"no coordinate {name} in blocks of sizes "
                             f"{list(struct.dims)}")
        idx = [0] * struct.n
        idx[struct.coords_of(k).start + i - 1] = 1
        return poly_monomial(struct, idx)

    return read_expr(text, leaf, lambda c: poly_const(struct, c))


def _orders(text: str, ell: int) -> tuple[int, ...]:
    """The --N orders: one natural number per action."""
    with _reading("--N"):
        N = tuple(int(x) for x in text.split(","))
        if len(N) != ell or min(N) < 0:
            raise ValueError(f"need {ell} natural orders, one per action")
    return N


def _emit(args, payload: dict, text_lines: list[str], latex_lines=None):
    fmt = args.format or os.environ.get("MULTISPEC_FORMAT", "text")
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    for line in (latex_lines or text_lines) if fmt == "latex" else text_lines:
        print(line)


def _scenario_pipeline(args):
    d, p = load_scenario(args.scenario)
    return run_pipeline(d, None, p)


# Section builders: one printable layer's JSON payload and text lines, which
# its subcommand emits and `analyze` shows under the layer's name.

def _pipeline_section(pl):
    """The generator set G, the parameter stages F0,j, the stages F^k and
    the last stage Fq."""
    def pairs(s):
        return [q.json() for q in sorted_pairs(s)]

    def sets(stages):
        return [{"eliminated": j, "set": pairs(s)} for j, s in stages]

    lines = [f"G     = {render_genset(pl.G)}"]
    lines += [f"F0,{j} = {render_genset(s)}" for j, s in pl.F0_stages]
    lines += [f"F^{k}  = {render_genset(s)}" for k, s in pl.F_stages]
    lines.append(f"Fq    = {render_genset(pl.Fq)}")
    return {"G": pairs(pl.G), "F0_stages": sets(pl.F0_stages),
            "F_stages": sets(pl.F_stages), "Fq": pairs(pl.Fq), "q": pl.q,
            "zero_cols": list(pl.zero_cols_L)}, lines


def _levels_or_reason(pl):
    """The level family, or None and why there is none (a fixed point)."""
    from .levels import build_levels

    try:
        return build_levels(pl), None
    except ValueError as exc:
        return None, str(exc)


def _levels_section(pl, levels, generalized: bool):
    """The level functions and their strictness, with `generalized` the
    permutation-minimised family too; `levels` is `_levels_or_reason(pl)`,
    and without a family the section gives the reason."""
    from .levels import build_generalized_levels, canonical

    def lines(fam, name):
        return [f"{name}[{j}] = {canonical(e)}   strict: {fam.strict[j]}"
                for j, e in sorted(fam.rho_Lambda.items())]

    fam, reason = levels
    if fam is None:
        return {"unavailable": reason}, [f"unavailable: {reason}"]
    if not generalized:
        return fam.json(), lines(fam, "rho")
    ghat = build_generalized_levels(pl.d, pl.r, pl.p)
    return ({"rho": fam.json(), "rho_hat": ghat.json()},
            lines(fam, "rho") + lines(ghat, "rho^"))


def _multicone_section(system):
    return system.json(), system.text()


def _closure_section(cl):
    return (cl.system.json(),
            [ineq.text(strict=False) for ineq in cl.system.inequalities])


def _expand_section(pl, N, levels):
    """Each action subset's index set at orders N, with its sign, and the
    remainder exponent; `levels` is `_levels_or_reason(pl)`."""
    from .asymptotics import (constraint_text, index_set, remainder_exponent,
                              subset_label, subsets_of_actions)
    from .levels import canonical

    d, r = pl.d, pl.r
    terms = [{"J": sorted(J), "sign": "+" if len(J) % 2 == 1 else "-",
              "constraints": constraint_text(d, J, r.sigma_A),
              "count": len(index_set(d, r, J, N).members)}
             for J in subsets_of_actions(d.ell)]
    lines = [f"{t['sign']} T_{subset_label(t['J'])}: " +
             "; ".join(t["constraints"]) + f"   ({t['count']} indices)"
             for t in terms]
    payload = {"J_terms": terms}
    fam, reason = levels
    if fam is None:
        payload.update(remainder=None, remainder_unavailable=reason)
        lines.append(f"remainder exponent unavailable: {reason}")
    else:
        payload["remainder"] = str(canonical(remainder_exponent(fam, N,
                                                                r.sigma_A)))
        lines.append(f"remainder exponent: {payload['remainder']}")
    return payload, lines


def _scenario_section(pl):
    """The header of `analyze`: the action class, the rank data, the
    derived monomials and, for a transitive or normal action, the bundle
    summands."""
    d, r = pl.d, pl.r
    action_class = classify_action(d)
    phi_inv = {j: str(pl.derived.phi_inv[j]) for j in r.sel_rows}
    psi = {k: str(m) for k, m in sorted(pl.derived.psi.items())}
    bundle = [{"block": s.block, "B": sorted(s.B_k), "text": s.text}
              for s in (bundle_decomposition(d) if action_class in
                        (ActionClass.TRANSITIVE, ActionClass.NORMAL) else ())]
    lines = [f"classification: {action_class.value}",
             f"rank L = {r.L}, sigma = {r.sigma_A}",
             f"selected rows {list(r.sel_rows)}, columns {list(r.sel_cols)}"]
    lines += [f"phi_inv[{j}] = {m}" for j, m in phi_inv.items()]
    lines += [f"psi[{k}] = {m}" for k, m in psi.items()]
    lines += [f"block {s['block']}: B = {s['B']}: {s['text']}" for s in bundle]
    return {"classification": action_class.value, "rank": r.L,
            "sigma": str(r.sigma_A), "selected_rows": list(r.sel_rows),
            "selected_columns": list(r.sel_cols), "phi_inv": phi_inv,
            "psi": psi, "bundle": bundle}, lines


def cmd_pipeline(args):
    _emit(args, *_pipeline_section(_scenario_pipeline(args)))


def cmd_levels(args):
    from .levels import build_levels

    pl = _scenario_pipeline(args)
    _emit(args, *_levels_section(pl, (build_levels(pl), None),
                                 args.generalized))


def cmd_multicone(args):
    from .multicone import build_multicone

    system = build_multicone(_scenario_pipeline(args))
    payload, lines = _multicone_section(system)
    latex = [r"\left\{\begin{array}{l}"] + \
        [ln.replace("eps", r"\epsilon").replace("*", r"\,") + r" \\"
         for ln in lines] + [r"\end{array}\right\}"]
    _emit(args, payload, lines, latex)


def cmd_closure(args):
    from .multicone import closure

    _emit(args, *_closure_section(closure(_scenario_pipeline(args),
                                          rounds=args.rounds)))


def cmd_project(args):
    from .multicone import build_multicone, project

    system = build_multicone(_scenario_pipeline(args), check_equivalence=False)
    for k in args.drop:
        system = project(system, k)
    _emit(args, *_multicone_section(system))


def cmd_restrict(args):
    from .restriction import check_restriction

    pl = _scenario_pipeline(args)
    with _reading("--beta"):
        beta = [fr(x) for x in args.beta.split(",")]
        if len(beta) != pl.d.m:
            raise ValueError(f"need {pl.d.m} entries, one per block")
        # a negative or zero row is malformed (`extended_matrix`)
        verdict = check_restriction(pl, beta)
    lines = [f"case: {verdict.case.value}", f"holds: {verdict.holds}"]
    lines += [f"fails [{w.condition}]: {w.pair} pairs to {w.log_value}"
              for w in verdict.witnesses]
    if verdict.sufficient_nonneg_combination is not None:
        lines.append("non-negative row combination: "
                     f"{verdict.sufficient_nonneg_combination}")
    _emit(args, verdict.json(), lines)


class _GraphSet:
    """Point set given by graph equations target=polynomial, sampled by
    drawing the free coordinates log-uniformly."""

    def __init__(self, struct: BlockStructure, equations):
        self.struct = struct
        self.deps = dict(equations)

    def sample(self, rng, scale):
        import numpy as np

        coords = {k: float(np.exp(rng.uniform(np.log(scale * 1e-3),
                                              np.log(scale))))
                  for k in range(1, self.struct.m + 1) if k not in self.deps}
        values = [coords.get(k, 0.0) for k in self.struct.coord_blocks]
        for k, rhs in self.deps.items():
            coords[k] = rhs.evaluate(values)
        return coords

    def contains(self, z):
        values = [z.get(k, 0.0) for k in self.struct.coord_blocks]
        return all(abs(z[k] - rhs.evaluate(values)) <= 1e-9 * (1 + abs(z[k]))
                   for k, rhs in self.deps.items())


def cmd_probe(args):
    from .asymptotics import structure_of
    from .multicone import normal_cone_probe

    pl = _scenario_pipeline(args)
    struct = structure_of(pl.d)
    equations = {}
    with _reading("--zset"):
        for spec in args.zset:
            lhs, eq, rhs = spec.partition("=")
            m = re.fullmatch(r"\s*z(\d+)\s*", lhs)
            if not (eq and m and 1 <= int(m[1]) <= struct.m):
                raise ValueError(f"{spec!r} is not z<k>=<polynomial> with k "
                                 f"a block of the scenario")
            if int(m[1]) in equations:
                raise ValueError(f"z{m[1]} is the target of two equations")
            equations[int(m[1])] = parse_block_polynomial(rhs, struct)
        # A right side names free blocks only: the targets are computed
        # from them.
        for k, rhs in equations.items():
            named = {struct.coord_blocks[c] for idx, _ in rhs.terms
                     for c, e in enumerate(idx) if e} & equations.keys()
            if named:
                raise ValueError(f"the right side of z{k} names "
                                 f"z{min(named)}, the target of an equation")
    zset = _GraphSet(struct, equations)
    result = normal_cone_probe(pl, pl.p, zset, samples=args.samples,
                               seed=args.seed)
    payload = {"outcome": result.outcome.value, "eps": result.eps,
               "radius": result.radius,
               "hits": {str(k): v for k, v in result.hits.items()}}
    _emit(args, payload, [f"outcome: {result.outcome.value}",
                          f"hits per scale: {result.hits}"])


def cmd_expand(args):
    pl = _scenario_pipeline(args)
    N = _orders(args.N, pl.d.ell)
    _emit(args, *_expand_section(pl, N, _levels_or_reason(pl)))


def cmd_map_check(args):
    from .asymptotics import PolyMapSpec, check_map, structure_of

    data = _json(args.spec_file)
    with _reading("map spec"):
        src = _deformation(data["source"])
        comps = tuple(parse_block_polynomial(c, structure_of(src))
                      for c in data["components"])
        spec = PolyMapSpec(src, _deformation(data["target"]), comps)
    res = check_map(spec)
    if res.ok:
        lines = ["ok"] + [f"y{i + 1} = {t}" for i, t in enumerate(res.induced)]
        payload = {"ok": True, "induced": [str(t) for t in res.induced]}
    else:
        lines = [f"fail: {res.reason}", f"witness: {res.witness}"]
        payload = {"ok": False, "reason": res.reason,
                   "witness": list(res.witness or ())}
    _emit(args, payload, lines)


def cmd_classify2(args):
    from .asymptotics import classify_two_manifolds

    rows = _json(args.matrix)
    with _reading("matrix"), warnings.catch_warnings():
        # equal rows are degenerate, which the catalogue rejects
        warnings.simplefilter("ignore")
        d = deformation(rows)
    case = classify_two_manifolds(d)
    remainder = case.remainder_text()
    system, system_lines = _multicone_section(case.system)
    lines = [f"case: {case.label}", f"remainder: {remainder}"]
    lines += [f"A_{key}(N): " + "; ".join(txt)
              for key, txt in case.constraints.items()]
    payload = {"case": case.label, "remainder": remainder,
               "constraints": case.constraints, "system": system}
    _emit(args, payload, lines + system_lines)


def cmd_verify(args):
    from .asymptotics import structure_of, verify_estimate

    d, p = load_scenario(args.scenario)
    with _reading("--function"):
        f = parse_block_polynomial(args.function, structure_of(d))
    N = _orders(args.N, d.ell)
    rep = verify_estimate(d, rank_and_normalize(d, p), p, f, N,
                          samples=args.samples, seed=args.seed)
    lines = [f"C = {rep.C_fit:.6g}", f"C at eps/2 = {rep.C_half:.6g}",
             f"PASS: {rep.passed}"]
    if rep.skipped:
        lines.append(f"skipped: {rep.skipped} sampled points whose "
                     "remainder bound is 0.0")
    payload = {"C": rep.C_fit, "C_half": rep.C_half, "passed": rep.passed,
               "samples": rep.samples, "skipped": rep.skipped}
    _emit(args, payload, lines)


def cmd_analyze(args):
    """The header, then each layer's section as its subcommand prints it,
    under its name; expand runs at unit orders."""
    from .multicone import build_multicone, closure

    pl = _scenario_pipeline(args)
    header, lines = _scenario_section(pl)
    payload = {"scenario": header}
    levels = _levels_or_reason(pl)
    sections = {
        "pipeline": _pipeline_section(pl),
        "levels": _levels_section(pl, levels, args.generalized),
        "multicone": _multicone_section(
            build_multicone(pl, check_equivalence=False)),
        "closure": _closure_section(closure(pl)),
        "expand": _expand_section(pl, (1,) * pl.d.ell, levels),
    }
    for name, (section, section_lines) in sections.items():
        payload[name] = section
        lines.append(f"{name}:")
        lines.extend("  " + ln for ln in section_lines)
    _emit(args, payload, lines)


def cmd_fixtures(args):
    from .fixtures import run_fixtures

    results = run_fixtures(args.filter or "")
    if not results:
        print("warning: no fixtures match the filter")
        return 0
    for name, check in results:
        status = "ok" if check.ok else "FAIL"
        detail = f"  ({check.detail})" if check.detail and not check.ok else ""
        print(f"[{status}] {name}: {check.label}{detail}")
    failures = sum(1 for _, c in results if not c.ok)
    print(f"{len(results)} checks, {failures} failures")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="multispec",
        description="Exact combinatorics of multi-normal deformations")
    ap.add_argument("--format", choices=["text", "json", "latex"],
                    default=None, help="output format (default: text or "
                    "MULTISPEC_FORMAT)")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("analyze", cmd_analyze, help="full report for a scenario")
    p.add_argument("scenario")
    p.add_argument("--generalized", action="store_true",
                   help="include the permutation-minimised level family")

    p = add("pipeline", cmd_pipeline, help="generator set and stages")
    p.add_argument("scenario")

    p = add("levels", cmd_levels, help="level functions and strictness")
    p.add_argument("scenario")
    p.add_argument("--generalized", action="store_true")

    p = add("multicone", cmd_multicone, help="inequality system")
    p.add_argument("scenario")

    p = add("closure", cmd_closure, help="closed inequality system")
    p.add_argument("scenario")
    p.add_argument("--rounds", type=int, default=1)

    p = add("project", cmd_project, help="project out blocks")
    p.add_argument("scenario")
    p.add_argument("--drop", type=int, nargs="+", required=True)

    p = add("restrict", cmd_restrict, help="added-row restriction verdict")
    p.add_argument("--matrix", dest="scenario", required=True)
    p.add_argument("--beta", required=True, help="comma-separated row")

    p = add("probe", cmd_probe, help="normal-cone sampling oracle")
    p.add_argument("scenario")
    p.add_argument("--zset", action="append", required=True,
                   help="graph equation like z3=z1*z2")
    p.add_argument("--samples", type=int, default=4000,
                   help="most points tried per scale; a scale stops at its "
                        "first member, so its hits are 1 or 0")
    p.add_argument("--seed", type=int, default=0)

    p = add("expand", cmd_expand, help="expansion template and remainder")
    p.add_argument("scenario")
    p.add_argument("--N", required=True, help="comma-separated orders")

    p = add("map-check", cmd_map_check, help="induced-map validation")
    p.add_argument("spec_file")

    p = add("classify2", cmd_classify2, help="two-manifold catalogue")
    p.add_argument("--matrix", required=True, help="JSON 2-row matrix")

    p = add("verify", cmd_verify, help="numeric remainder estimate")
    p.add_argument("scenario")
    p.add_argument("--function", required=True)
    p.add_argument("--N", required=True)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)

    p = add("fixtures", cmd_fixtures, help="run the worked-example corpus")
    p.add_argument("--filter", default="")
    return ap


# The least value of each count option; a smaller one is malformed input.
_LEAST = {"samples": 1, "seed": 0, "rounds": 0}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        for name, least in _LEAST.items():
            if getattr(args, name, least) < least:
                raise ScenarioError(f"invalid --{name}: need at least "
                                    f"{least}, got {getattr(args, name)}")
        result = args.fn(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's reader is gone (`multispec ... | head`): send Python's
        # flush at exit to devnull, and exit 1 as Python does on EPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return int(result or 0)


if __name__ == "__main__":
    sys.exit(main())
