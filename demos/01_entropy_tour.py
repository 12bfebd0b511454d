"""A tour of the entropy quantities on the bundled hiring dataset.

Run:  python3 demos/01_entropy_tour.py
"""

from catent import (
    INTERNSHIP,
    conditional_entropy,
    cross_check,
    entropic_ratio,
    entropy,
    induced_partition,
    joint_entropy,
    load_fixture,
    mutual_information,
    symmetric_uncertainty,
)


def main() -> None:
    data = load_fixture(INTERNSHIP)
    print(f"dataset: {data.row_count} rows, columns {', '.join(data.names)}")
    print()

    # Every quantity is a functional of the partition a column induces on
    # the row set, so two columns that merely relabel each other are
    # literally the same point for everything below.
    parts = {nm: induced_partition(data[nm], data) for nm in data.names}

    print("marginal entropies (bits):")
    for nm in data.names:
        blocks = parts[nm].n_blocks
        print(f"  H({nm:<13}) = {entropy(parts[nm]):.4f}   ({blocks} blocks)")
    print()

    x, y = parts["Creativity"], parts["GotHired"]
    print("the Creativity / GotHired pair:")
    print(f"  H(Creativity)            = {entropy(x):.4f}")
    print(f"  H(GotHired)              = {entropy(y):.4f}")
    print(f"  H(Creativity, GotHired)  = {joint_entropy(x, y):.4f}")
    print(f"  H(Creativity | GotHired) = {conditional_entropy(x, y):.4f}")
    print(f"  H(GotHired | Creativity) = {conditional_entropy(y, x):.4f}")
    print(f"  MI                       = {mutual_information(x, y):.4f}")
    print(f"  SU                       = {symmetric_uncertainty(x, y):.4f}")
    print(f"  entropic ratio           = {entropic_ratio(x, y):.4f}")
    print()

    print("identities that hold to machine precision:")
    print("  H(X,Y) = H(Y) + H(X|Y) = H(X) + H(Y|X)")
    lhs = joint_entropy(x, y)
    print(f"    {lhs:.12f} = {entropy(y) + conditional_entropy(x, y):.12f}"
          f" = {entropy(x) + conditional_entropy(y, x):.12f}")
    print("  SU = 2 MI / (H(X)+H(Y)) = 2 (1 - R)")
    su = symmetric_uncertainty(x, y)
    print(f"    {su:.12f} = {2 * (1 - entropic_ratio(x, y)):.12f}")
    report = cross_check(x, y)
    worst = -min(c.worst_slack for c in report.checks)
    print(f"  worst disagreement between alternative routes: {worst:.2e}")


if __name__ == "__main__":
    main()
