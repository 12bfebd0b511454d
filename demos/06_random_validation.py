"""Large-scale seeded validation: which laws are theorems, and which
quietly depend on the data.

This reruns every validator over 1000 reproducible random datasets (the
same population the acceptance tests use: seeds 0-999, up to 12 rows, 4
symbols, 5 columns) and tallies the outcomes.  The result is the
package's central empirical finding in one table:

* monoid laws, contraction bound, conditional-entropy laws, and five of
  the six similarity conditions: zero violations, ever;
* the triangle inequality for d = 1 - SU: fails on a solid fraction of
  datasets, so d is a semimetric, not a metric.

Run:  python3 demos/06_random_validation.py   (about three seconds)
"""

from collections import Counter

from catent import (
    GenConfig,
    canonical_classes,
    check_contractivity,
    check_distance_axioms,
    check_entropy_laws,
    check_monoid_laws,
    check_similarity_axioms,
    distance_matrix,
    gen_dataset,
)

POPULATION = 1000


def main() -> None:
    failures: Counter[str] = Counter()
    triangle_violators: list[int] = []
    worst = (0.0, None)

    print(f"validating {POPULATION} seeded datasets ...")
    for seed in range(POPULATION):
        data = gen_dataset(GenConfig(seed=seed), columns=(seed % 4) + 2)
        reports = [
            check_similarity_axioms(data),
            check_distance_axioms(distance_matrix(data), canonical_classes(data)),
            check_monoid_laws(data),
            check_contractivity(data),
            check_entropy_laws(data),
        ]
        violated_triangle = False
        for report in reports:
            for check in report.failures():
                failures[check.name] += 1
                if check.name in ("triangle_bound", "triangle_inequality"):
                    violated_triangle = True
                    if check.worst_slack < worst[0]:
                        worst = (check.worst_slack, (seed, check.witness))
        if violated_triangle:
            triangle_violators.append(seed)

    print()
    print("violations per axiom over the whole population:")
    all_names = (
        "symmetry", "self_similarity_nonnegative", "self_similarity_dominates",
        "value_range", "max_on_indiscernible", "max_only_on_indiscernible",
        "triangle_bound", "nonnegativity", "bounded_by_one", "zero_diagonal",
        "zero_on_indiscernible", "zero_only_on_indiscernible",
        "triangle_inequality", "associativity", "commutativity",
        "identity_element", "well_definedness", "contractivity",
        "chain_rule", "coarsening_monotone", "zero_iff_coarser",
        "join_raises_entropy", "conditioning_reduces",
    )
    for name in all_names:
        print(f"  {name:<28} {failures.get(name, 0)}")
    print()

    count = len(triangle_violators)
    print(f"datasets violating the triangle inequality: {count}/{POPULATION} "
          f"({100 * count / POPULATION:.1f}%)")
    if count:
        print(f"  first violator: seed {triangle_violators[0]}")
        slack, where = worst
        print(f"  worst violation: {-slack:.4f} at seed {where[0]}, "
              f"columns {','.join(where[1])}")
    print()
    print("every other law: zero violations across the population.  The")
    print("asymmetry is the point - those laws are theorems, the triangle")
    print("inequality for 1 - SU is not.")


if __name__ == "__main__":
    main()
