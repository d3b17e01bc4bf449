"""Command-line surface: exact, scriptable computations with JSON/CSV output.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error, out of memory or an input too large to allocate, 3 a failed internal
invariant.  Output is deterministic for a fixed configuration: dictionaries
are emitted in fixed key order and every rational is rendered as "num/den".
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from fractions import Fraction
from operator import mul

from . import alcove, characters, liealg, qseries, shift

USAGE_ERROR = 2
VERIFY_ERROR = 1
INTERNAL_ERROR = 3


class ConfigError(ValueError):
    pass


def _case(args) -> shift.ShiftCase:
    return shift.make_case(args.algebra, args.variant, args.m)


def _order(args) -> int:
    """--order, checked before --algebra is read."""
    if args.order < 0:
        raise ConfigError("--order must be nonnegative")
    return args.order


def _parse_lambda(case: shift.ShiftCase, text: str) -> shift.LambdaParam:
    idx, *digits = _integers("--lambda", text)
    if len(digits) != case.rank:
        raise ConfigError(
            f"--lambda wants 'minuscule-index,digit1,...,digit{case.rank}'")
    return shift.lambda_from(case, idx, digits)


def _parse_alpha(case: shift.ShiftCase, text: str):
    values = _integers("--alpha", text)
    if values == [0]:
        values *= case.rank
    if len(values) != case.rank:
        raise ConfigError(f"--alpha wants {case.rank} comma-separated integers")
    return tuple(map(Fraction, values))


def _integers(flag: str, text: str) -> list[int]:
    """A comma-separated flag value; an error names the flag and the value."""
    values = []
    for part in text.split(","):
        try:
            values.append(int(part))
        except ValueError:
            raise ConfigError(f"{flag} {text}: {part.strip()!r} is not an integer") from None
    return values


def _emit(args, payload, to_csv=None) -> None:
    # argparse offers csv only to the commands that pass to_csv
    if args.format == "csv":
        text = to_csv()
    elif args.format == "plain":
        text = _plainify(payload)
    else:
        text = json.dumps(payload, indent=2) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write --output: {exc}") from exc
    elif (out := getattr(sys.stdout, "buffer", None)) is None:  # a text stream in memory
        sys.stdout.write(text)
    else:
        # a raw stdout (python -u) takes a short write without an error when
        # its reader leaves, so write until every byte is taken
        data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
        try:
            sys.stdout.flush()
            while data:
                data = data[out.write(data) or 0:]
            out.flush()
        except OSError as exc:  # a closed pipe, say; no later flush may fail again
            with open(os.devnull, "w") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
            raise ConfigError(f"cannot write stdout: {exc}") from exc


def _plainify(payload, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(payload, dict):
        return "".join(
            f"{pad}{k}:\n{_plainify(v, indent + 1)}" if isinstance(v, (dict, list))
            else f"{pad}{k}: {v}\n"
            for k, v in payload.items())
    if isinstance(payload, list):
        return "".join(
            _plainify(v, indent) if isinstance(v, (dict, list))
            else f"{pad}- {v}\n"
            for v in payload)
    return f"{pad}{payload}\n"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_info(args) -> int:
    algebra = liealg.SimpleLieType.parse(args.algebra)
    payload = liealg.build_root_system(algebra).to_json_dict()
    payload["enumerated"] = liealg.weyl_order(algebra) <= liealg.DEFAULT_WEYL_CAP
    _emit(args, payload)
    return 0


def cmd_lambda(args) -> int:
    case = _case(args)
    report = shift.condition_report(case, all_words=False)
    return _verdict(args, report.to_json_dict(), _repro(case, "lambda"), report.to_csv)


def cmd_check(args) -> int:
    case = _case(args)
    if args.suite == "axioms":
        report = shift.verify_axioms(case)
    elif args.suite == "weak-strong":
        report = shift.condition_report(case, all_words=True)
    else:  # alcove-independence; argparse restricts the choices
        report = _alcove_independence_report(case)
    to_csv = ((lambda: _failures_csv(report)) if args.suite == "alcove-independence"
              else report.to_csv)
    return _verdict(args, report.to_json_dict(), _repro(case, "check", args.suite), to_csv)


def _repro(case: shift.ShiftCase, *command: str) -> str:
    """The shiftlab command with the case's flags."""
    return (f"shiftlab {' '.join(command)} --algebra {case.rs.lie_type} "
            f"--variant {case.variant.value} --m {case.m}")


def _verdict(args, payload: dict, repro: str, to_csv=None) -> int:
    """Emit the payload, each of its failure records with a repro command
    (repro, unless the record names its own), and return the exit code."""
    for failure in payload["failures"]:
        failure.setdefault("repro", repro)
    _emit(args, payload, to_csv)
    return VERIFY_ERROR if payload["failures"] else 0


def _failures_csv(report: shift.ShiftReport) -> str:
    """One row per failure record of the alcove-independence report; a
    closed-form mismatch gives its got and want as JSON in the detail."""
    import csv
    import io
    out = io.StringIO()
    rows = csv.writer(out, lineterminator="\n")
    rows.writerow(["check", "bullet", "alpha", "detail"])
    rows.writerows([f["check"], f["bullet"], ",".join(f["alpha"]),
                    f.get("detail") or json.dumps({"got": f["got"], "want": f["want"]})]
                   for f in report.failures)
    return out.getvalue()


def _alcove_independence_report(case: shift.ShiftCase) -> shift.ShiftReport:
    """y_alpha's digit independence and super closed form on each bullet with a strong
    coset, which y_alpha needs; a failure's repro prints its y, on the first of them."""
    strong = {b: shift._cosets(case).label(s[0]) for b in range(len(case.rs.minuscule_labels))
              if (s := alcove._strong_cosets(case, b))}
    if not strong:
        raise alcove.WallReductionError(f"no bullet of {case.case_id()} has a strong coset, "
                                        f"so alcove-independence has no y_alpha to check")
    report, alphas = shift.ShiftReport(case.case_id(), {"checks": 0}, ()), _alphas(case.rs, 4)
    for b_idx, label in strong.items():
        for alpha in alphas:
            report.counts["checks"] += 1
            repro = (_repro(case, "alcove")
                     + f" --alpha {','.join(map(str, alpha))} --lambda {label}")
            witness = {"bullet": b_idx, "alpha": [str(x) for x in alpha], "repro": repro}
            try:
                y = alcove.y_alpha(alpha, b_idx, case)
            except alcove.DigitDependenceError as exc:
                report.failures.append({"check": "digit-independence", **witness,
                                        "detail": str(exc)})
                continue
            if case.variant.is_super:
                cf = alcove.closed_form_y_super(alpha, b_idx, case)
                if y != cf:
                    report.failures.append({"check": "closed-form", **witness,
                                            "got": y.describe(), "want": cf.describe()})
    return report


def _alphas(rs: liealg.RootSystem, heights: int) -> list:
    """The dominant alpha in Q of height below ``heights``, by height and root coordinates."""
    walk = characters.dominant_down_set(rs, lambda labels: sum(rs.from_labels(labels)) < heights)
    return sorted(map(rs.from_labels, walk), key=lambda alpha: (sum(alpha), alpha))


def cmd_char(args) -> int:
    order = _order(args)
    case = _case(args)
    lam = _parse_lambda(case, args.lam)
    alpha = _parse_alpha(case, args.alpha)
    kind = args.kind
    if kind == "ch":
        series = characters.multiplet_char(alpha, lam, case, order)
    elif kind == "sch":
        series = characters.multiplet_superchar(alpha, lam, case, order)
    else:
        if case.variant is not shift.Variant.SUPER_RAMOND:
            raise ConfigError("--kind ramond requires --variant ramond")
        series = characters.multiplet_ramond_char(alpha, lam, case, order)
    payload = {
        "case": case.case_id(),
        "alpha": [str(x) for x in alpha],
        "lambda": lam.label(),
        "kind": kind,
        "central_charge": f"{case.central_charge.numerator}/"
                          f"{case.central_charge.denominator}",
        "strong": shift.alcove_inequality(lam, case),
        "series": series.to_json_dict(),
    }
    _emit(args, payload)
    return 0


def cmd_ftchar(args) -> int:
    order = _order(args)
    case = _case(args)
    lam = _parse_lambda(case, args.lam)
    series = characters.ft_char(lam, case, order)
    payload = {
        "case": case.case_id(),
        "lambda": lam.label(),
        "kind": "ft",
        "strong": shift.alcove_inequality(lam, case),
        "series": series.to_json_dict(),
    }
    _emit(args, payload)
    return 0


def cmd_alcove(args) -> int:
    case = _case(args)
    lam = _parse_lambda(case, args.lam)
    alpha = _parse_alpha(case, args.alpha)
    _emit(args, alcove.alcove_json(case, alpha, lam))
    return 0


def cmd_verify(args) -> int:
    order = _order(args)
    case = _case(args)
    rs = case.rs
    failures: list[dict] = []
    checks = 0
    if args.target == "wchar":
        lam0 = shift._cosets(case).record(0)
        got = characters.multiplet_char((Fraction(0),) * case.rank, lam0, case, order)
        want = characters.walg_vacuum_oracle(case, order)
        checks += 1
        if not got.same_series(want):
            failures.append({"check": "wchar",
                             "got": got.to_json_dict(),
                             "want": want.to_json_dict()})
    elif args.target == "verma":
        alphas = _alphas(rs, 3)
        for lam in shift.enumerate_lambda(case):
            for alpha in alphas:
                mu = tuple(case.p * (v - a) for v, a in zip(lam.value, alpha))
                got = characters.verma_char_super(mu, case, order)
                want = characters.weight_space_char(
                    lam, tuple(a + b for a, b in zip(alpha, lam.bullet_up)), case, order)
                checks += 1
                if not got.same_series(want):
                    failures.append({"check": "verma", "lambda": lam.label(),
                                     "alpha": [str(x) for x in alpha]})
    elif args.target == "walls":
        # beta in the root-coordinate box, on the first coset, whose bullet
        # is zero: the labels of beta are Cartan * coords
        lam0 = shift._cosets(case).record(0)
        for coords in itertools.product(range(-2, 3), repeat=rs.rank):
            labels = tuple(sum(map(mul, row, coords)) for row in rs.cartan)
            # beta + rho is on a wall when its dominant form has a zero label
            if 0 not in rs.to_dominant(tuple(x + 1 for x in labels))[0]:
                continue
            checks += 1
            if not characters._alternating_sum(case, lam0, labels, order).is_zero:
                failures.append({"check": "wall-vanishing", "beta": list(map(str, coords))})
    return _verdict(args, {"case": case.case_id(), "target": args.target,
                           "checks": checks, "failures": failures},
                    _repro(case, "verify", args.target) + f" --order {order}")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line on stderr, as every other usage error
        self.exit(USAGE_ERROR, f"error: {message}\n")


def _build_parser(invoked: str | None = None) -> argparse.ArgumentParser:
    """The parser of the ``invoked`` subcommand alone, or of every subcommand
    when ``invoked`` is None or names none.  A usage error prints one line and
    no usage text, so the subcommands left out change no output."""
    parser = _Parser(
        prog="shiftlab",
        description="Exact shift systems and q-characters for multiplet "
                    "W-(super)algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help):
        if invoked not in (None, name):
            return None
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    def common(p, case=True, order=None, csv=False):
        p.add_argument("--algebra", required=True, help="e.g. A2, B3, G2")
        if case:
            p.add_argument("--variant", default="nonsuper",
                           choices=[v.value for v in shift.Variant])
            p.add_argument("--m", type=int, default=1)
        if order is not None:
            p.add_argument("--order", type=int, default=order,
                           help="truncation depth in q-units above the leading exponent")
        p.add_argument("--format", default="json",
                       choices=["json", "csv", "plain"] if csv else ["json", "plain"])
        p.add_argument("--output", default=None)

    if p := add("info", cmd_info, "root-system data as JSON"):
        common(p, case=False)

    if p := add("lambda", cmd_lambda, "coset table with weak/strong/alcove flags"):
        common(p, csv=True)

    if p := add("check", cmd_check, "verification suites"):
        p.add_argument("suite", choices=["axioms", "weak-strong", "alcove-independence"])
        common(p, csv=True)

    if p := add("char", cmd_char, "multiplet character"):
        common(p, order=30)
        p.add_argument("--alpha", default="0")
        p.add_argument("--lambda", dest="lam", required=True,
                       help="minuscule-index,digit1,...,digitr")
        p.add_argument("--kind", default="ch", choices=["ch", "sch", "ramond"])

    if p := add("ftchar", cmd_ftchar, "full construction character"):
        common(p, order=10)
        p.add_argument("--lambda", dest="lam", required=True)

    if p := add("alcove", cmd_alcove, "chamber reduction data for (alpha, lambda)"):
        common(p)
        p.add_argument("--alpha", default="0")
        p.add_argument("--lambda", dest="lam", required=True)

    if p := add("verify", cmd_verify, "formula-vs-oracle comparisons"):
        p.add_argument("target", choices=["wchar", "verma", "walls"])
        common(p, order=30)

    # the whole tree for --help, no command or an unknown one
    return parser if sub.choices else _build_parser()


def main(argv=None) -> int:
    # --lambda and --alpha take the next token as their value, even one that
    # starts with a minus sign, which argparse would read as an option
    tokens: list[str] = []
    for token in sys.argv[1:] if argv is None else argv:
        if tokens and tokens[-1] in ("--lambda", "--alpha"):
            tokens[-1] += "=" + token
        else:
            tokens.append(token)
    args = _build_parser(tokens[0] if tokens else None).parse_args(tokens)
    try:
        return args.func(args)
    # ValueError covers ConfigError, InvalidCaseError, InvalidTypeError and
    # UnsupportedCaseError
    except (ValueError, liealg.CapExceededError, qseries.GridBoundError,
            alcove.WallReductionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    # a failed internal check; the expected failures are failure records
    except AssertionError as exc:
        print(json.dumps({"error": "internal", "type": type(exc).__name__,
                          "message": str(exc)}), file=sys.stderr)
        return INTERNAL_ERROR
    except (MemoryError, OverflowError) as exc:  # OverflowError: a size past any index
        memory = isinstance(exc, MemoryError)  # printed past the handler, once its frames are freed
    print("error: out of memory" if memory else "error: input too large", file=sys.stderr)
    return USAGE_ERROR


def run() -> None:
    """The process entry of ``shiftlab`` and ``python -m shiftlab.cli``: main(),
    a flush, and an exit without the interpreter's teardown, which takes longer
    than most commands.  Argparse's exits and uncaught exceptions exit as usual."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":  # pragma: no cover
    run()
