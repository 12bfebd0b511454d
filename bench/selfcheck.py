"""Check the benchmark's reference against the library and a known answer.

    python3 bench/selfcheck.py

The reference must match catent on both bundled fixtures (every SU,
distance, entropy and conditional entropy within 1e-9, and the same
indiscernibility classes), and it must flag the smallest triangle
counterexample (three uniform rows carved {0,2}|{1}, {0}|{1}|{2} and
{0}|{1,2}) with worst triangle slack -0.19334333118114108.  Exits 0
when every check holds, 1 otherwise.
"""

import itertools
import sys
from pathlib import Path

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
TRIANGLE_SLACK = -0.19334333118114108
COUNTEREXAMPLE = {
    "pair_02": ["a", "b", "a"],
    "finest": ["p", "q", "r"],
    "pair_12": ["u", "v", "v"],
}


def check_fixture(catent, path: Path) -> list[str]:
    columns = ref.read_csv(path)
    reference = ref.Reference(columns)
    dataset = catent.load_csv(path)
    parts = {n: catent.induced_partition(dataset[n], dataset) for n in dataset.names}
    matrix = catent.distance_matrix(dataset)
    errors = []
    if list(dataset.names) != reference.names:
        errors.append(f"names {dataset.names}")
    for a, b in itertools.product(reference.names, repeat=2):
        pairs = {
            "SU": (catent.symmetric_uncertainty(parts[a], parts[b]), reference.su(a, b)),
            "d": (matrix.value(a, b), reference.distance(a, b)),
            "H(x|y)": (catent.conditional_entropy(parts[a], parts[b]),
                       ref.conditional_entropy(columns[a], columns[b])),
        }
        for what, (got, want) in pairs.items():
            if not ref.close(got, want):
                errors.append(f"{what}({a},{b}): library {got!r}, reference {want!r}")
    for name in reference.names:
        if not ref.close(catent.entropy(parts[name]), ref.entropy(columns[name])):
            errors.append(f"H({name})")
    groups: dict = {}
    for name, cls in catent.canonical_classes(dataset).items():
        groups.setdefault(cls, []).append(name)
    if sorted(groups.values()) != sorted(reference.class_groups()):
        errors.append(f"classes {list(groups.values())} vs {reference.class_groups()}")
    return errors


def check_counterexample(catent) -> list[str]:
    reference = ref.Reference(COUNTEREXAMPLE)
    errors = []
    for what, slack in (("triangle_bound", reference.triangle_bound_slack()),
                        ("triangle_inequality", reference.triangle_inequality_slack())):
        if abs(slack - TRIANGLE_SLACK) > 1e-12:
            errors.append(f"reference {what} slack {slack!r}, want {TRIANGLE_SLACK!r}")
    report = catent.check_similarity_axioms(catent.Dataset.from_columns(COUNTEREXAMPLE))
    tri = report.check("triangle_bound")
    if tri.passed or not ref.close(tri.worst_slack, reference.triangle_bound_slack()):
        errors.append(f"library triangle_bound {tri.passed} {tri.worst_slack!r}")
    return errors


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import catent

    data = ROOT / "src" / "catent" / "data"
    results = {name: check_fixture(catent, data / name)
               for name in ("internship.csv", "indiscernibles.csv")}
    results["triangle counterexample"] = check_counterexample(catent)
    for name, errors in results.items():
        print(f"[{'FAIL' if errors else 'PASS'}] {name}")
        for error in errors:
            print(f"    {error}")
    return 1 if any(results.values()) else 0


if __name__ == "__main__":
    raise SystemExit(main())
