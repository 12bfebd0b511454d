"""Command-line front end.

Exit codes: 0 when the requested computation or validation succeeds,
1 when a validator finds a violation (a witness is printed), 2 for
usage errors, unknown columns, or unreadable input, and 141, silently,
when the reader of standard output leaves early (``catent ... | head``).

Values display with 4 decimals by default; ``--full`` switches to 17
significant digits on the commands that print them (``su``, ``rank``,
``dist``, ``demo-nondiscrete``).  Datasets are read from a CSV path or
from stdin when the path is ``-``; ``dist`` and ``joint`` write their
result to ``--out`` when it is given, and to stdout otherwise.
"""

import argparse
import os
import sys
import unicodedata
from functools import partial, reduce
from pathlib import Path

from .algebra import MAX_JOINT, check_contractivity, check_monoid_laws, joint
from .entropy import (
    UndefinedRatioError,
    conditional_entropy,
    entropic_ratio,
    entropy,
    joint_entropy,
    mutual_information,
    symmetric_uncertainty,
)
from .ingest import MATRIX_FORMATS, CsvSpec, load_csv, save_csv, save_matrix
from .metric import (
    MAX_DEMO_STEPS,
    AxiomReport,
    check_distance_axioms,
    check_entropy_laws,
    check_similarity_axioms,
    distance_matrix,
    merge_reports,
    nondiscreteness_demo,
)
from .model import canonical_classes, induced_partition
from .randgen import MODES, GenConfig, gen_dataset

# --random is a count of generated datasets; a hundred times the acceptance population
MAX_RANDOM = 100_000
# --triples and --quadruples are drawn up front; a hundred times DEFAULT_SAMPLES
MAX_SAMPLES = 100_000
# columns per dataset from --random; the generator's other flags, by dest
RANDOM_COLUMNS = 3
_GEN_FLAGS = {"gen_columns": "--columns", "rows": "--rows",
              "alphabet_size": "--alphabet", "correlation_mode": "--mode"}


def _fmt(value: float, full: bool) -> str:
    return format(value, ".17g") if full else format(value, ".4f")


def _csv_spec(args) -> CsvSpec:
    return CsvSpec(delimiter=args.delimiter, drop_na=args.drop_na)


def _load(args):
    return load_csv(args.data, _csv_spec(args))


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")


def _column(name: str) -> str:
    # command-line column names are NFC-normalised, as load_csv does the header
    return unicodedata.normalize("NFC", name)


def _require_columns(dataset, names):
    for name in names:
        if name not in dataset:
            raise ValueError(f"unknown column {name!r}")


# ---------------------------------------------------------------------------
# plain computations


def _cmd_su(args) -> int:
    dataset = _load(args)
    _require_columns(dataset, [args.a, args.b])
    x = induced_partition(dataset[args.a], dataset)
    y = induced_partition(dataset[args.b], dataset)
    try:
        ratio = _fmt(entropic_ratio(x, y), args.full)
    except UndefinedRatioError:
        ratio = "undefined"
    su = symmetric_uncertainty(x, y)
    rows = [
        ("SU", _fmt(su, args.full)),
        ("distance", _fmt(1.0 - su, args.full)),
        ("entropic_ratio", ratio),
        ("MI", _fmt(mutual_information(x, y), args.full)),
        (f"H({args.a})", _fmt(entropy(x), args.full)),
        (f"H({args.b})", _fmt(entropy(y), args.full)),
        (f"H({args.a},{args.b})", _fmt(joint_entropy(x, y), args.full)),
        (f"H({args.a}|{args.b})", _fmt(conditional_entropy(x, y), args.full)),
        (f"H({args.b}|{args.a})", _fmt(conditional_entropy(y, x), args.full)),
    ]
    width = max(len(label) for label, _ in rows)
    for label, value in rows:
        print(f"{label:<{width}}  {value}")
    return 0


def _cmd_rank(args) -> int:
    dataset = _load(args)
    _require_columns(dataset, [args.cls])
    others = [name for name in dataset.names if name != args.cls]
    if not others:
        raise ValueError("dataset has no feature columns besides the class")
    target = induced_partition(dataset[args.cls], dataset)
    scored = [
        (symmetric_uncertainty(induced_partition(dataset[name], dataset), target), name)
        for name in others
    ]
    scored.sort(key=lambda t: (-t[0], t[1]))
    for su, name in scored:
        print(f"{name}\t{_fmt(su, args.full)}")
    return 0


def _cmd_dist(args) -> int:
    dataset = _load(args)
    subset = args.columns or None
    if subset:
        _require_columns(dataset, subset)
    matrix = distance_matrix(dataset, subset)
    # files always keep full precision so they round-trip
    number_format = ".17g" if args.full or args.out else ".4f"
    _emit(save_matrix(matrix, fmt=args.format, number_format=number_format), args.out)
    return 0


def _cmd_joint(args) -> int:
    if len(args.cols) > MAX_JOINT:
        raise ValueError(f"joint takes at most {MAX_JOINT} columns")
    dataset = _load(args)
    _require_columns(dataset, args.cols)
    if len(args.cols) < 2:
        raise ValueError("joint needs at least two columns")
    combined = reduce(
        lambda acc, name: joint(acc, dataset[name], dataset),
        args.cols[1:],
        dataset[args.cols[0]],
    )
    if combined.name in dataset:
        raise ValueError(f"column {combined.name!r} already exists")
    _emit(save_csv(dataset.with_column(combined), spec=_csv_spec(args)), args.out)
    return 0


def _cmd_classes(args) -> int:
    dataset = _load(args)
    classes = canonical_classes(dataset)
    groups: dict = {}
    for name in dataset.names:
        groups.setdefault(classes[name], []).append(name)
    for idx, (cls, members) in enumerate(groups.items()):
        profile = ",".join(str(p) for p in cls.signature)
        print(f"{idx}: {' '.join(members)}  [profile {profile}]")
    return 0


# ---------------------------------------------------------------------------
# validators


def _add_random_options(sub):
    sub.add_argument("--random", type=int, metavar="N",
                     help="generate N seeded datasets instead of reading DATA")
    sub.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    # no argparse defaults, so that a given flag shows in args; GenConfig has them
    sub.add_argument("--columns", dest="gen_columns", type=int, default=argparse.SUPPRESS,
                     help=f"columns per generated dataset (default {RANDOM_COLUMNS})")
    sub.add_argument("--rows", nargs=2, type=int, default=argparse.SUPPRESS, metavar=("LO", "HI"),
                     help="row-count range (default %d %d)" % GenConfig.rows)
    sub.add_argument("--alphabet", dest="alphabet_size", nargs=2, type=int,
                     default=argparse.SUPPRESS, metavar=("LO", "HI"),
                     help="alphabet-size range (default %d %d)" % GenConfig.alphabet_size)
    sub.add_argument("--mode", dest="correlation_mode", choices=MODES, default=argparse.SUPPRESS,
                     help=f"correlation mode (default {GenConfig.correlation_mode})")


def _datasets_under_test(args):
    """Yield (tag, dataset) pairs from DATA or from the generator."""
    given = {dest: tuple(v) if isinstance(v, list) else v
             for dest, v in vars(args).items() if dest in _GEN_FLAGS}
    if args.data is not None and args.random is not None:
        raise ValueError("give either DATA or --random, not both")
    if args.data is not None:
        if given:
            raise ValueError(f"{_GEN_FLAGS[next(iter(given))]} applies only to --random")
        yield args.data, _load(args)
        return
    if args.random is None:
        raise ValueError("either DATA or --random N is required")
    if _csv_spec(args) != CsvSpec():
        raise ValueError("--delimiter and --drop-na apply only to DATA")
    if not 1 <= args.random <= MAX_RANDOM:
        raise ValueError(f"--random must be at least 1 and at most {MAX_RANDOM}")
    columns = given.pop("gen_columns", RANDOM_COLUMNS)
    for i in range(args.random):
        yield f"seed={args.seed + i}", gen_dataset(GenConfig(seed=args.seed + i, **given), columns)


def _metric_reports(dataset, args):
    yield check_similarity_axioms(dataset, triples=args.triples, seed=args.seed)
    yield check_distance_axioms(
        distance_matrix(dataset), canonical_classes(dataset),
        triples=args.triples, seed=args.seed,
    )


def _monoid_reports(dataset, args):
    yield check_monoid_laws(dataset, triples=args.triples, seed=args.seed)
    yield check_contractivity(dataset, quadruples=args.quadruples, seed=args.seed)


def _lemma_reports(dataset, args):
    yield check_entropy_laws(dataset, triples=args.triples, seed=args.seed)


def _law_tally(report) -> str:
    width = max(len(c.name) for c in report.checks)
    return "\n".join(
        f"{c.name:<{width}}  checked={c.instances} nonvacuous={c.nonvacuous} "
        f"failures={c.violations}"
        for c in report.checks
    )


def _cmd_check(validators, summary, args) -> int:
    """Run a command's validators on every dataset under test; print with ``summary``."""
    for flag in ("triples", "quadruples"):
        if (vars(args).get(flag) or 0) > MAX_SAMPLES:
            raise ValueError(f"--{flag} must be at most {MAX_SAMPLES}")
    merged, failures = AxiomReport(()), []  # folded as reports arrive: memory stays flat
    for tag, dataset in _datasets_under_test(args):
        for report in validators(dataset, args):
            merged = merge_reports((merged, report))
            failures.extend((tag, c) for c in report.failures())
    print(summary(merged))
    if merged.passed:
        print("overall: PASS")
        return 0
    for tag, check in failures:
        witness = ",".join(check.witness) if check.witness else "?"
        print(f"violation in dataset[{tag}] {check.name}: witness={witness} "
              f"lhs={check.lhs!r} rhs={check.rhs!r}")
    print("overall: FAIL")
    return 1


def _cmd_demo_nondiscrete(args) -> int:
    pairs = nondiscreteness_demo(args.steps)
    print("n\tepsilon\tdistance")
    for eps, dist in pairs:
        n = round(1.0 / eps)
        print(f"{n}\t{_fmt(eps, args.full)}\t{_fmt(dist, args.full)}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catent",
        description="distance geometry and monoid structure on the columns "
        "of categorical datasets, via the symmetric-uncertainty distance",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, with_data=True):
        if with_data:
            p.add_argument("data", help="CSV path, or - for stdin")
        p.add_argument("--delimiter", default=",", help="field delimiter (default ,)")
        p.add_argument("--drop-na", action="store_true",
                       help="drop rows with empty cells instead of keeping <NA>")

    def add_full(p):
        p.add_argument("--full", action="store_true",
                       help="print 17 significant digits instead of 4 decimals")

    p = sub.add_parser("su", help="symmetric uncertainty and entropies of a column pair")
    add_io(p)
    add_full(p)
    p.add_argument("a", type=_column, help="first column")
    p.add_argument("b", type=_column, help="second column")
    p.set_defaults(func=_cmd_su)

    p = sub.add_parser("rank", help="rank features by SU against a class column")
    add_io(p)
    add_full(p)
    p.add_argument("cls", metavar="class", type=_column, help="class column")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("dist", help="pairwise distance matrix of the columns")
    add_io(p)
    add_full(p)
    p.add_argument("columns", nargs="*", type=_column, help="column subset (default: all)")
    p.add_argument("--format", choices=MATRIX_FORMATS, default="tsv")
    p.add_argument("--out", help="write to this path (always full precision)")
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("joint", help="append the joint of two or more columns")
    add_io(p)
    p.add_argument("cols", nargs="+", type=_column, help="columns to combine")
    p.add_argument("--out", help="write the augmented CSV to this path")
    p.set_defaults(func=_cmd_joint)

    p = sub.add_parser("classes", help="group columns by indiscernibility")
    add_io(p)
    p.set_defaults(func=_cmd_classes)

    for command, help_text, func in (
        ("check-metric", "validate similarity conditions and metric axioms",
         partial(_cmd_check, _metric_reports, AxiomReport.summary)),
        ("check-monoid", "validate monoid laws and contractivity of the joint",
         partial(_cmd_check, _monoid_reports, AxiomReport.summary)),
        ("check-lemma2", "validate the conditional-entropy laws on column triples",
         partial(_cmd_check, _lemma_reports, _law_tally)),
    ):
        p = sub.add_parser(command, help=help_text)
        add_io(p, with_data=False)
        p.add_argument("data", nargs="?", default=None, help="CSV path, or - for stdin")
        _add_random_options(p)
        p.add_argument("--triples", type=int, default=None,
                       help="sample size for triples (default: exhaustive)")
        p.set_defaults(func=func)
    sub.choices["check-monoid"].add_argument(
        "--quadruples", type=int, default=None,
        help="sample size for contractivity (default: exhaustive)")

    p = sub.add_parser("demo-nondiscrete",
                       help="show distinct columns at vanishing distance")
    p.add_argument("--steps", type=int, default=11,
                   help="number of doublings starting at 4 rows "
                   f"(default 11, at most {MAX_DEMO_STEPS})")
    add_full(p)
    p.set_defaults(func=_cmd_demo_nondiscrete)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has already printed usage or help
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe must fail here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader left early (``catent ... | head``): not an error of the input;
        # stdout goes to devnull so the final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a writer killed by the signal
    # every refusal of bad input or usage is a ValueError
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
