"""Command-line entry point.

Subcommands: verify (exact scans of the identities and bounds), chow
(intersection numbers and nef tests), beta (beta constants and bounds),
heights (local Weil breakdowns), search (divisibility / ideal-equality
searches over boxes), audit (sampled height-inequality audits).

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource
bound hit (factorization).  Outputs carry a header echoing the full run
configuration; a fixed seed makes every output byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from bisect import bisect_right
from fractions import Fraction

from . import __version__
from .audits import iter_sample_points, levin_duke_rows, subspace_rows
from .beta import (
    beta_exact_cyclic,
    beta_numeric_cyclic,
    countinglambda_rhs,
    f_poly,
    marked_beta_report,
    scan_cyclic,
    scan_f_monotone,
    scan_marked,
)
from .chow import (
    BlowupConfig,
    config_classes,
    cyclic_config,
    nef_test,
    parse_class_expr,
    top_intersection,
)
from .heights import (
    ARCH,
    Place,
    ProjPoint,
    finite_primes,
    height,
    parse_places,
    proximity_counting,
    weil_local,
    weil_subscheme,
)
from .poly import parse_poly
from .primes import FactorizationBoundError
from .reporting import (
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    EXIT_VERIFY_FAIL,
    RunConfig,
    csv_head,
    csv_lines,
    fmt,
    jsonl_lines,
    parse_config_file,
    worker_count,
    write_stream,
)
from .search import (
    SolutionSet,
    degeneracy_report,
    run_search,
    search_spec,
    search_with_checkpoint,
    solution_set_text,
)

VERIFY_FIELDS = ["section", "n", "q_or_l", "beta", "bound", "target", "verdict"]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def verify_rows(n_hi_chow: int = 6, n_hi_beta: int = 8, q_mult: int = 12) -> list[dict]:
    rows: list[dict] = []
    for n in range(2, n_hi_chow + 1):
        for q in range(3 * n, 4 * n + 1):
            cl = config_classes(cyclic_config(n, q))
            d_cls = cl["D"]
            hts = [cl[f"Ht{i}"] for i in range(1, q + 1)]
            dn = top_intersection([d_cls] * n)
            expect_dn = q ** n - n ** n * q
            ok = dn == expect_dn
            for k in range(n):
                expect = q ** k - n ** (k + 1)
                head = [d_cls] * k
                for ht in hts:
                    got = top_intersection(head + [ht] * (n - k))
                    ok = ok and got == expect
            rows.append({"section": "intersection", "n": n, "q_or_l": q,
                         "beta": "", "bound": dn, "target": expect_dn,
                         "verdict": ok})
    for r in scan_cyclic(n_hi_beta, q_mult):
        rows.append({"section": "beta_cyclic", "n": r["n"], "q_or_l": r["q"],
                     "beta": r["beta"], "bound": r["f"], "target": "beta>1,f>0",
                     "verdict": r["ok"]})
    for r in scan_f_monotone(n_hi_beta, q_mult):
        rows.append({"section": "f_monotone", "n": r["n"], "q_or_l": r["q"],
                     "beta": "", "bound": r["difference"], "target": ">0",
                     "verdict": r["ok"]})
    for r in scan_marked():
        rows.append({"section": "autissier_marked", "n": r["n"],
                     "q_or_l": r["ell"], "beta": f"i={r['index']}",
                     "bound": r["bound"], "target": r["target"],
                     "verdict": r["ok"]})
    return rows


def cmd_verify(args) -> int:
    if args.chow_n_hi < 2 or args.beta_n_hi < 2 or args.q_mult < 3:
        raise ValueError("verify needs --chow-n-hi >= 2, --beta-n-hi >= 2, "
                         "--q-mult >= 3")
    rows = verify_rows(args.chow_n_hi, args.beta_n_hi, args.q_mult)
    config = RunConfig("verify", {
        "chow_n_hi": str(args.chow_n_hi), "beta_n_hi": str(args.beta_n_hi),
        "q_mult": str(args.q_mult), "format": args.format,
    })
    _emit(rows, VERIFY_FIELDS, config, args)
    for row in rows:
        if not row["verdict"]:
            print(f"FIRST FAILING ROW: {json.dumps({k: fmt(v) for k, v in row.items()})}",
                  file=sys.stderr)
            return EXIT_VERIFY_FAIL
    return EXIT_OK


# ---------------------------------------------------------------------------
# chow
# ---------------------------------------------------------------------------

def _build_config(args):
    if args.kind == "cyclic":
        if args.q is None:
            raise ValueError("cyclic configuration needs --q")
        return cyclic_config(args.n, args.q)
    return BlowupConfig(args.n, "marked", 2 * args.n if args.q is None else args.q)


def cmd_chow(args) -> int:
    cfg = _build_config(args)
    classes = config_classes(cfg, args.ell)
    rows = []
    if args.classes:
        for name in sorted(classes):
            rows.append({"item": name, "value": json.dumps(classes[name].to_json(),
                                                           sort_keys=True)})
    if args.power:
        factors = []
        for token in args.power:
            name, _, exp_text = token.partition(",")
            try:
                exp = cfg.n if exp_text == "n" else int(exp_text)
            except ValueError:
                raise ValueError(f"--power: {token!r} is not NAME,EXP with EXP an int "
                                 "or n") from None
            if name not in classes:
                raise ValueError(f"unknown class {name!r}")
            if exp < 0:
                raise ValueError(f"--power exponent must be >= 0, got {token!r}")
            factors.extend([classes[name]] * exp)
        value = top_intersection(factors)
        rows.append({"item": "power " + " ".join(args.power), "value": value})
    if args.nef:
        cls = parse_class_expr(args.nef, cfg, args.ell)
        res = nef_test(cls, cfg)
        rows.append({"item": f"nef {args.nef}", "value": res.describe()})
    if not rows:
        raise ValueError("nothing to do: pass --power, --nef, or --classes")
    config = RunConfig("chow", {
        "kind": args.kind, "n": str(args.n), "q": str(args.q),
        "ell": str(args.ell), "power": " ".join(args.power or []),
        "nef": args.nef or "", "classes": str(args.classes),
        "format": args.format,
    })
    _emit(rows, ["item", "value"], config, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# beta
# ---------------------------------------------------------------------------

def cmd_beta(args) -> int:
    rows = []
    params = {"format": args.format}
    if args.cyclic:
        n, q = args.cyclic
        exact = beta_exact_cyclic(n, q)
        row = {"item": f"beta_cyclic n={n} q={q}", "exact": exact,
               "estimate": "", "claim": "beta > 1", "verdict": exact > 1}
        if args.numeric_n is not None:
            est = beta_numeric_cyclic(n, q, args.numeric_n)
            row["estimate"] = est
        rows.append(row)
        rows.append({"item": f"f n={n} q={q}", "exact": f_poly(n, q),
                     "estimate": "", "claim": "f > 0",
                     "verdict": f_poly(n, q) > 0})
        params |= {"cyclic": f"{n},{q}", "numeric_n": str(args.numeric_n)}
    if args.marked:
        n, ell = args.marked
        for index in (args.index,) if args.index is not None else (1, n + 2):
            rep = marked_beta_report(n, ell, index)
            rows.append({"item": f"beta_marked n={n} ell={ell} i={index}",
                         "exact": rep.lower_bound, "estimate": "",
                         "claim": rep.claim,
                         "verdict": rep.claim_holds})
        params |= {"marked": f"{n},{ell}", "index": str(args.index)}
    if args.counting_l is not None:
        iv = countinglambda_rhs(args.counting_l)
        rows.append({"item": f"counting bound l={args.counting_l}",
                     "exact": f"[{iv.lo}; {iv.hi}]",
                     "estimate": float((iv.lo + iv.hi) / 2),
                     "claim": f"width <= {fmt(iv.width())}", "verdict": True})
        params |= {"counting_l": str(args.counting_l)}
    if not rows:
        raise ValueError("nothing to do: pass --cyclic, --marked, or --counting-l")
    config = RunConfig("beta", params)
    _emit(rows, ["item", "exact", "estimate", "claim", "verdict"], config, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# heights
# ---------------------------------------------------------------------------

def _rational(text: str) -> Fraction:
    """Fraction(text), with a zero denominator a usage error (ValueError)."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _places(text: str):
    """parse_places of --s, a bad place named with the flag."""
    try:
        return parse_places(text)
    except ValueError as exc:
        raise ValueError(f"--s: {exc}") from None


def cmd_heights(args) -> int:
    s = _places(args.s)
    point = ProjPoint.normalize([_rational(c) for c in args.point.split(",")])
    form = parse_poly(args.form, len(point.coords))
    gens = [form, *(parse_poly(text, len(point.coords)) for text in args.subscheme or [])]
    dec = proximity_counting(form, point, s)
    places = [ARCH] + [Place(p) for p in sorted(set(finite_primes(s))
                                                | set(dec.support))]
    rows = []
    product = 1                     # of the printed local values: h^d when they agree
    for v in places:
        lh = weil_local(form, point, v)
        product *= lh.value
        row = {"place": str(v), "in_s": "yes" if v in s else "no",
               "value": lh.value, "lambda": lh.log_value}
        if len(gens) > 1:
            row["subscheme_value"] = weil_subscheme(gens, point, v).value
        rows.append(row)
    rows.append({"place": "m_S", "in_s": "", "value": dec.proximity,
                 "lambda": float(dec.log_rows["m"])})
    rows.append({"place": "N_S", "in_s": "", "value": dec.counting,
                 "lambda": float(dec.log_rows["N"])})
    rows.append({"place": "h", "in_s": "", "value": dec.total,
                 "lambda": float(dec.log_rows["h"])})
    rows.append({"place": "height_check", "in_s": "",
                 "value": product == height(point) ** form.total_degree(),
                 "lambda": ""})
    fields = ["place", "in_s", "value", "lambda"]
    if len(gens) > 1:
        fields.append("subscheme_value")
    config = RunConfig("heights", {
        "form": args.form, "point": args.point, "s": args.s,
        "subscheme": ";".join(args.subscheme or []), "format": args.format,
    })
    _emit(rows, fields, config, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def _read_forms_file(path: str) -> tuple[list[str], str | None]:
    """Form lines and the optional G line (prefix 'G:')."""
    forms, g_text = [], None
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("G:"):
                if g_text is not None:
                    raise ValueError("forms file declares G twice")
                g_text = line[2:].strip()
            else:
                forms.append(line[2:].strip() if line.startswith("F:") else line)
    return forms, g_text


def cmd_search(args) -> int:
    if args.degeneracy is not None and args.degeneracy < 1:
        raise ValueError("--degeneracy must be >= 1")
    if args.growth is not None and not args.degeneracy:
        raise ValueError("--growth needs --degeneracy")
    try:
        bounds = [int(t) for t in args.growth.split(",")] if args.growth else []
    except ValueError:
        raise ValueError(f"--growth takes a comma list of ints, got {args.growth!r}") from None
    if min([args.box, *bounds]) < 0:
        raise ValueError("invalid search box")
    s_primes = []
    if args.s_primes not in (None, "", "none"):
        for token in filter(None, (t.strip() for t in args.s_primes.split(","))):
            try:
                s_primes.append(int(token))
            except ValueError:
                raise ValueError(f"--s-primes: {token!r} is not an int") from None
    form_texts, g_text = _read_forms_file(args.forms)
    # boxes nest and no check depends on the bound: one search at the top
    # bound holds each box's solutions as a prefix (they sort by height)
    search = search_spec({
        "kind": args.kind, "dim": args.dim, "bound": max([args.box, *bounds]),
        "denom_cap": args.denom_cap, "s_primes": s_primes, "forms": form_texts,
        "g": g_text, "mode": args.mode, "assert_general_position": args.assert_general_position})
    if args.checkpoint:
        found = search_with_checkpoint(args.checkpoint, search, args.workers)
    else:
        found = run_search(search, args.workers)
    heights = [max(abs(c.numerator) for c in pt) for pt in found.points]
    cut = bisect_right(heights, args.box)
    sols = SolutionSet({**search.descriptor, "bound": args.box},
                       found.points[:cut], found.witnesses[:cut])

    config = RunConfig("search", {
        "kind": args.kind, "forms": args.forms, "mode": args.mode or "",
        "box": str(args.box), "dim": str(args.dim),
        "s_primes": args.s_primes or "none", "denom_cap": str(args.denom_cap),
        "format": args.format,
    })
    if args.format == "csv":
        rows = [{"point": ":".join(str(c) for c in pt),
                 "witnesses": json.dumps(wit, sort_keys=True)}
                for pt, wit in zip(sols.points, sols.witnesses)]
        _emit(rows, ["point", "witnesses"], config, args)
    else:
        write_stream(args.out, (solution_set_text(sols),))

    if args.degeneracy:
        rep = degeneracy_report(sols.points, args.degeneracy, sols.descriptor["projective"])
        rep["descriptor"] = sols.descriptor
        rep["growth"] = [(b, bisect_right(heights, b)) for b in bounds] if bounds else None
        print(json.dumps(rep, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

AUDIT_FIELDS = ["index", "point", "on_support", "lhs", "lhs_log", "verdict",
                "defect", "summary", "violators", "max_defect"]


def cmd_audit(args) -> int:
    s = _places(args.s)
    form_texts, _ = _read_forms_file(args.forms)
    if not form_texts:
        raise ValueError("audit needs at least one form")
    nvars = max(parse_poly(t).nvars for t in form_texts)
    forms = [parse_poly(t, nvars) for t in form_texts]
    eps = _rational(args.epsilon)
    # every check runs here, before the first byte: the sampler and the
    # audit check their arguments on the call and draw nothing until written
    points = iter_sample_points(nvars - 1, args.height_bound, args.samples, args.seed)
    audit_rows = subspace_rows if args.kind == "subspace" else levin_duke_rows
    blocks = audit_rows(forms, s, eps, points, args.workers)
    config = RunConfig("audit", {
        "kind": args.kind, "forms": args.forms, "s": args.s,
        "epsilon": args.epsilon, "samples": str(args.samples),
        "seed": str(args.seed), "height_bound": str(args.height_bound),
        "format": args.format,
    })
    write_stream(args.out, _audit_report(blocks, config, args.format == "csv"))
    return EXIT_OK


def _audit_report(blocks, config: RunConfig, csv: bool):
    """The report's text: its header, then the lines of each block of rows
    as the block is taken, then the summary line accumulated on the way."""
    yield csv_head(AUDIT_FIELDS, config) if csv else config.header_json() + "\n"
    samples = violators = on_support = 0
    max_defect = None
    for block in blocks:
        records = []
        for row in block:
            rec = {"index": row.index, "point": str(row.point), "on_support": row.on_support}
            if row.on_support:
                on_support += 1
            else:
                rec |= {"lhs": str(row.lhs), "lhs_log": row.lhs_log(),
                        "rhs": row.rhs, "verdict": row.verdict,
                        "per_place": row.per_place}
                violators += row.verdict is False
                if row.defect is not None:
                    rec |= {"defect": str(row.defect),
                            "defect_by_place": row.defect_by_place}
                    if max_defect is None or row.defect > max_defect:
                        max_defect = row.defect
            records.append(rec)
        samples += len(block)
        yield _audit_lines(records, csv)
    yield _audit_lines([{
        "summary": True, "samples": samples, "violators": violators,
        "on_support": on_support,
        "max_defect": None if max_defect is None else str(max_defect),
    }], csv)


def _audit_lines(records: list[dict], csv: bool) -> str:
    if not csv:
        return jsonl_lines(records)
    return csv_lines([{k: _audit_cell(k, rec.get(k, "")) for k in AUDIT_FIELDS}
                      for rec in records], AUDIT_FIELDS)


def _audit_cell(key: str, value):
    """An audit CSV cell: the flags on_support and summary read true/false
    (fmt would render them as verdicts) and a missing value is empty."""
    if value is None:
        return ""
    if key != "verdict" and isinstance(value, bool):
        return "true" if value else "false"
    return value


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _emit(rows: list[dict], fields: list[str], config: RunConfig, args):
    if args.format == "json":
        records = [{k: fmt(row.get(k, "")) for k in fields} for row in rows]
        chunks = (config.header_json() + "\n", jsonl_lines(records))
    else:
        chunks = (csv_head(fields, config), csv_lines(rows, fields))
    write_stream(args.out, chunks)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--json", dest="format", action="store_const", const="json")
    p.add_argument("--csv", dest="format", action="store_const", const="csv")
    p.add_argument("--workers", type=int, default=None,
                   help="worker count (default: BETACHOW_WORKERS or 1)")
    p.add_argument("--config-file", default=None,
                   help="key=value file mirroring the CLI flags")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="betachow", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run every exact scan; exit 0 iff all pass")
    p.add_argument("--chow-n-hi", type=int, default=6)
    p.add_argument("--beta-n-hi", type=int, default=8)
    p.add_argument("--q-mult", type=int, default=12)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("chow", help="intersection numbers and nef tests")
    p.add_argument("--config", dest="kind", choices=["cyclic", "marked"],
                   required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--power", nargs="+", default=None,
                   metavar="NAME,EXP", help="e.g. --power D,n or --power D,1 Ht1,1")
    p.add_argument("--nef", default=None, help="class expression, e.g. 'D-2*Ht1'")
    p.add_argument("--classes", action="store_true", help="dump the named classes")
    _add_common(p)
    p.set_defaults(func=cmd_chow)

    p = sub.add_parser("beta", help="beta constants, bounds, and enclosures")
    p.add_argument("--cyclic", nargs=2, type=int, metavar=("N", "Q"))
    p.add_argument("--numeric-N", dest="numeric_n", type=int, default=None)
    p.add_argument("--marked", nargs=2, type=int, metavar=("N", "ELL"))
    p.add_argument("--index", type=int, default=None)
    p.add_argument("--counting-l", dest="counting_l", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_beta)

    p = sub.add_parser("heights", help="local Weil breakdown of a form at a point")
    p.add_argument("--form", required=True)
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    p.add_argument("--s", default="inf", help="places, e.g. 'inf' or 'inf,2,3'")
    p.add_argument("--subscheme", action="append", default=None,
                   help="extra generator form (repeatable)")
    _add_common(p)
    p.set_defaults(func=cmd_heights)

    p = sub.add_parser("search", help="divisibility and ideal-equality searches")
    p.add_argument("kind", choices=["thm11", "cor12", "thm16"])
    p.add_argument("--forms", required=True, help="forms file; 'G:' marks G")
    p.add_argument("--mode", choices=["i", "ii"], default="i")
    p.add_argument("--box", type=int, required=True)
    p.add_argument("--dim", type=int, default=2,
                   help="affine/projective dimension n")
    p.add_argument("--s-primes", default="none")
    p.add_argument("--denom-cap", type=int, default=0)
    p.add_argument("--assert-general-position", action="store_true")
    p.add_argument("--degeneracy", type=int, default=None,
                   help="max degree for the degeneracy report")
    p.add_argument("--growth", default=None, help="comma list of box bounds")
    p.add_argument("--checkpoint", default=None, help="resumable range file")
    _add_common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("audit", help="sampled audits of height inequalities")
    p.add_argument("kind", choices=["subspace", "levinduke"])
    p.add_argument("--forms", required=True)
    p.add_argument("--s", default="inf")
    p.add_argument("--epsilon", default="1/2")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--height-bound", type=int, default=1000)
    _add_common(p)
    p.set_defaults(func=cmd_audit)

    return parser


def _join_dash_values(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """argv with `--opt value` written `--opt=value` where --opt takes one
    value and the value starts with '-' but is none of the option strings of
    the parser and its subcommand: argparse would read a value such as -1/2,
    -1,2 or -x0+x1 as an option."""
    actions = list(parser._actions)
    for a in parser._actions:
        if isinstance(a.choices, dict) and argv and argv[0] in a.choices:
            actions += a.choices[argv[0]]._actions
    options = {o for a in actions for o in a.option_strings}
    one_value = {o for a in actions if a.nargs is None for o in a.option_strings}
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in one_value and tok.startswith("-") and tok not in options:
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--config-file" in argv:
        i = argv.index("--config-file")
        try:
            extra = parse_config_file(argv[i + 1])
        except (IndexError, OSError, ValueError) as exc:
            print(f"error: cannot read config file: {exc}", file=sys.stderr)
            return EXIT_USAGE
        flags: list[str] = []
        for k, v in extra.items():
            flags.append(f"--{k}")
            if v != "":
                flags.append(v)
        argv = argv[:1] + flags + argv[1:i] + argv[i + 2:]
    parser = build_parser()
    try:
        args = parser.parse_args(_join_dash_values(parser, argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        args.workers = worker_count(args.workers)
        return args.func(args)
    except FactorizationBoundError as exc:
        print(f"error: resource bound: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
