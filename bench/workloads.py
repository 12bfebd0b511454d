"""The four workloads: seeded inputs, the timed op, and its checks.

Each workload builds its inputs from the seed in ``build`` (timed as
set-up), runs one op per input in ``op`` (timed), and checks the op's
output against ``reference`` in ``check`` (not timed).  ``replay``
re-runs the lower-layer work of the op's composite calls through public
functions, under spans marked as replayed; it runs only in the traced
run and never inside an op's timing.  ``unit`` is the number of ops in
one balanced round: a run stops only at a round boundary, so every run
of a workload measures the same mix.

The benchmark sees catent only through its public functions and never
patches or instruments it.
"""

import csv
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import unicodedata
from pathlib import Path

import reference as ref
from reference import TOLERANCE, close

# tall and wide shapes, scaled down from 20 000 and 4 000 rows so that one
# op takes about half a second and a run holds dozens of ops; the shape
# property holds at this scale: few blocks and per-row work on the tall
# table, ~10^4 block pairs per column pair on the wide one
TABLE_SHAPES = {
    "table-tall": (1_000, 8),
    "table-wide-alphabet": (500, 100),
}
TABLE_COLUMNS = 10
TABLE_VARIANTS = 4
# catent's documented default sample of triangle triples past 8 columns
SAMPLED_TRIPLES = 1000
# population datasets of similar size are grouped; a round takes one
# from each group, so every round has the same mix of shapes
POPULATION_SIZE = 1000
POPULATION_GROUP = 10
CLI_TIMEOUT_S = 30


def sha256_json(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _failures(report, allowed=()) -> list[str]:
    return [f"{c.name} failed" for c in report.checks if not c.passed and c.name not in allowed]


def _check_triangle(check, margin, names, exhaustive: bool) -> list[str]:
    """A triangle verdict must agree with the reference.

    ``margin`` is the reference's slack on one ordered triple.  The worst
    slack must be the reference's slack on the triple named as witness,
    and the verdict must be the reference's over all ordered triples.  An
    exhaustive validator sees every ordered triple, so its worst slack is
    also the reference's minimum.  Past catent's 8-column limit the
    validator draws ``SAMPLED_TRIPLES`` triples with a fixed seed; on the
    ten-column tables that fixed sample holds the designed parity
    violation (c2, c0, c7), so the verdict is still the reference's FAIL.
    """
    triples = list(itertools.product(names, repeat=3))
    slack = min(itertools.starmap(margin, triples))
    want_instances = len(triples) if exhaustive else SAMPLED_TRIPLES
    errors = []
    if check.instances != want_instances:
        errors.append(f"{check.name}: {check.instances} instances, want {want_instances}")
    if check.passed != (slack >= -TOLERANCE):
        errors.append(f"{check.name}: verdict {check.passed}, reference slack {slack!r}")
    if check.passed != (check.worst_slack >= -TOLERANCE):
        errors.append(f"{check.name}: verdict {check.passed} contradicts its slack")
    if check.witness not in triples:
        errors.append(f"{check.name}: witness {check.witness} is not an ordered triple")
    elif not close(check.worst_slack, margin(*check.witness)):
        errors.append(f"{check.name}: worst slack {check.worst_slack!r} on {check.witness},"
                      f" want {margin(*check.witness)!r}")
    if exhaustive and not close(check.worst_slack, slack):
        errors.append(f"{check.name}: worst slack {check.worst_slack!r}, want {slack!r}")
    return errors


def _check_groups(classes: dict, reference: ref.Reference) -> list[str]:
    groups: dict = {}
    for name, cls in classes.items():
        groups.setdefault(cls, []).append(name)
    got = sorted(sorted(g) for g in groups.values())
    want = sorted(sorted(g) for g in reference.class_groups())
    return [] if got == want else [f"class groups {got}, want {want}"]


def _check_matrix(matrix, reference: ref.Reference) -> list[str]:
    if list(matrix.names) != reference.names:
        return [f"matrix names {matrix.names}"]
    return [
        f"d({a},{b}) = {matrix.value(a, b)!r}, want {reference.distance(a, b)!r}"
        for a in reference.names
        for b in reference.names
        if not close(matrix.value(a, b), reference.distance(a, b))
    ]


def _replay(catent, tr, dataset, pairs, joins: bool) -> None:
    """Lower-layer work of the op's composite calls: a partition and its
    entropy per column, then a conditional entropy (and, with ``joins``,
    a join) per column pair."""
    parts = {}
    for name in dataset.names:
        with tr.span("model.induced_partition", replayed=True):
            parts[name] = catent.induced_partition(dataset[name], dataset)
        with tr.span("entropy.entropy", replayed=True):
            catent.entropy(parts[name])
    for a, b in pairs:
        with tr.span("entropy.conditional_entropy", replayed=True):
            catent.conditional_entropy(parts[a], parts[b])
        if joins:
            with tr.span("model.join", replayed=True):
                catent.join(parts[a], parts[b])


# ---------------------------------------------------------------------------
# table-tall and table-wide-alphabet


def gen_table(rows: int, k: int, seed: int) -> dict[str, list[str]]:
    """Ten columns of ``k``-symbol labels with known structure: a coarsening
    (c2 of c0), an indiscernible relabeled copy (c3 of c0), a noisy copy
    (c4 of c1), a skewed column, a parity column whose pairing with c0 and
    c2 breaks the triangle inequality, and a noisy target c9.  Labels of
    even columns are written in NFD, so loading normalises them."""
    rng = random.Random(seed)

    def draw(n=k):
        return int(rng.random() * n)

    perm = list(range(k))
    rng.shuffle(perm)
    codes = [[] for _ in range(TABLE_COLUMNS)]
    for _ in range(rows):
        c0, c1, c5 = draw(), draw(), int(rng.random() ** 2 * k)
        c4 = c1 if rng.random() < 0.9 else draw()
        c9 = (c0 + c1) % k if rng.random() < 0.8 else draw()
        row = (c0, c1, c0 // 2, perm[c0], c4, c5, (c1 + c5) % k, c0 % 2, draw(), c9)
        for col, code in zip(codes, row):
            col.append(code)
    return {
        f"c{i}": [("e\u0301" if i % 2 == 0 else "s") + f"{i}_{code}" for code in col]
        for i, col in enumerate(codes)
    }


class Table:
    """load_csv -> canonical_classes -> distance_matrix ->
    check_distance_axioms, rank every column against the last, then the
    joint of two columns, save_csv, and a save_matrix/load_matrix round
    trip."""

    unit = 1

    def __init__(self, catent, name: str, inputs: Path):
        self.catent = catent
        self.rows, self.k = TABLE_SHAPES[name]
        self.prefix = inputs / name

    def build(self, seed: int, tr):
        items, digest = [], hashlib.sha256()
        for variant in range(TABLE_VARIANTS):
            columns = gen_table(self.rows, self.k, seed * TABLE_VARIANTS + variant)
            buffer = io.StringIO()
            writer = csv.writer(buffer)
            writer.writerow(columns)
            writer.writerows(zip(*columns.values()))
            data = buffer.getvalue().encode("utf-8")
            digest.update(data)
            path = Path(f"{self.prefix}-{seed}-{variant}.csv")
            path.write_bytes(data)
            nfc = {n: [unicodedata.normalize("NFC", lab) for lab in col]
                   for n, col in columns.items()}
            items.append({"path": path, "columns": nfc, "cells": self.rows * TABLE_COLUMNS})
        return items, digest.hexdigest()

    def op(self, item, tr):
        c = self.catent
        with tr.span("ingest.load_csv"):
            ds = c.load_csv(item["path"])
        with tr.span("model.canonical_classes"):
            classes = c.canonical_classes(ds)
        with tr.span("metric.distance_matrix"):
            matrix = c.distance_matrix(ds)
        with tr.span("metric.check_distance_axioms"):
            report = c.check_distance_axioms(matrix, classes)
        *features, target = ds.names
        with tr.span("model.induced_partition"):
            target_part = c.induced_partition(ds[target], ds)
        ranked = []
        for name in features:
            with tr.span("model.induced_partition"):
                part = c.induced_partition(ds[name], ds)
            with tr.span("entropy.symmetric_uncertainty"):
                ranked.append((c.symmetric_uncertainty(part, target_part), name))
        ranked.sort(key=lambda t: (-t[0], t[1]))
        with tr.span("algebra.joint"):
            pair = c.joint(ds["c0"], ds["c1"], ds)
        with tr.span("model.with_column"):
            augmented = ds.with_column(pair)
        with tr.span("ingest.write"):
            text = c.save_csv(augmented)
            matrix_back = c.load_matrix(io.StringIO(c.save_matrix(matrix)))
        return {"dataset": ds, "classes": classes, "matrix": matrix, "report": report,
                "ranked": ranked, "joint_name": pair.name, "csv": text,
                "matrix_back": matrix_back}

    def check(self, item, out, tr) -> list[str]:
        if "reference" not in item:
            item["reference"] = ref.Reference(item["columns"])
        reference = item["reference"]
        names = reference.names
        report, matrix = out["report"], out["matrix"]
        errors = _check_groups(out["classes"], reference) + _check_matrix(matrix, reference)
        errors += _failures(report, allowed=("triangle_inequality",))
        errors += _check_triangle(report.check("triangle_inequality"),
                                  reference.triangle_inequality_margin, names, exhaustive=False)
        # ranking: every feature once, values match, order agrees up to ties
        target = names[-1]
        if sorted(n for _, n in out["ranked"]) != sorted(names[:-1]):
            errors.append("ranking does not list every feature once")
        want = [reference.su(n, target) for _, n in out["ranked"]]
        for (value, name), w in zip(out["ranked"], want):
            if not close(value, w):
                errors.append(f"SU({name},{target}) = {value!r}, want {w!r}")
        if any(a < b - TOLERANCE for a, b in zip(want, want[1:])):
            errors.append("ranking order disagrees with the reference")
        # augmented CSV: the input columns plus the joint of c0 and c1
        rows = list(csv.reader(io.StringIO(out["csv"])))
        if rows[0] != names + [out["joint_name"]]:
            errors.append(f"saved header {rows[0]}")
        cols = [item["columns"][n] for n in names]
        for r, row in enumerate(rows[1:]):
            want_row = [col[r] for col in cols]
            want_row.append(f"({want_row[0]},{want_row[1]})")
            if row != want_row:
                errors.append(f"saved row {r}: {row}")
                break
        if len(rows) != len(cols[0]) + 1:
            errors.append(f"saved {len(rows) - 1} rows")
        back = out["matrix_back"]
        if back.names != matrix.names or any(
            back.value(a, b) != matrix.value(a, b) for a in names for b in names
        ):
            errors.append("matrix does not round-trip exactly")
        if tr.enabled:
            n = len(names)
            tr.count("metric.distance_matrix.pairs", n * (n - 1) // 2)
            tr.count("metric.check_distance_axioms.instances",
                     sum(c.instances for c in report.checks))
        return errors

    def replay(self, item, out, tr):
        ds = out["dataset"]
        # distance_matrix: SU per unordered pair, through H(x | y)
        with tr.span("metric.distance_matrix", replayed=True):
            _replay(self.catent, tr, ds, itertools.combinations(ds.names, 2), joins=False)


# ---------------------------------------------------------------------------
# population


class Population:
    """Every validator, exhaustively, on one acceptance-population dataset:
    ``gen_dataset(GenConfig(seed=s), columns=s % 4 + 2)``, s < 1000."""

    unit = POPULATION_SIZE // POPULATION_GROUP

    def __init__(self, catent, name: str, inputs: Path):
        self.catent = catent

    def build(self, seed: int, tr):
        c = self.catent
        population = []
        for s in range(POPULATION_SIZE):
            with tr.span("randgen.gen_dataset"):
                population.append((s, c.gen_dataset(c.GenConfig(seed=s), columns=s % 4 + 2)))
        # group datasets of similar size; round j takes the j-th member of
        # every group, in a seeded order
        population.sort(key=lambda sd: (len(sd[1].names), sd[1].row_count,
                                        sum(len(sd[1][n].alphabet) for n in sd[1].names),
                                        sd[0]))
        rng = random.Random(seed)
        groups = [population[i:i + POPULATION_GROUP]
                  for i in range(0, POPULATION_SIZE, POPULATION_GROUP)]
        for group in groups:
            rng.shuffle(group)
        items = []
        for j in range(POPULATION_GROUP):
            round_ = [group[j] for group in groups]
            rng.shuffle(round_)
            items.extend({"seed": s, "dataset": ds,
                          "cells": ds.row_count * len(ds.names)} for s, ds in round_)
        digest = sha256_json([[it["seed"], {n: list(it["dataset"][n].labels)
                                            for n in it["dataset"].names}] for it in items])
        return items, digest

    def op(self, item, tr):
        c, ds = self.catent, item["dataset"]
        out = {}
        with tr.span("metric.check_similarity_axioms"):
            out["metric.check_similarity_axioms"] = c.check_similarity_axioms(ds)
        with tr.span("metric.distance_matrix"):
            out["matrix"] = matrix = c.distance_matrix(ds)
        with tr.span("model.canonical_classes"):
            out["classes"] = classes = c.canonical_classes(ds)
        with tr.span("metric.check_distance_axioms"):
            out["metric.check_distance_axioms"] = c.check_distance_axioms(matrix, classes)
        with tr.span("algebra.check_monoid_laws"):
            out["algebra.check_monoid_laws"] = c.check_monoid_laws(ds)
        with tr.span("algebra.check_contractivity"):
            out["algebra.check_contractivity"] = c.check_contractivity(ds)
        parts = {}
        for name in ds.names:
            with tr.span("model.induced_partition"):
                parts[name] = c.induced_partition(ds[name], ds)
        with tr.span("entropy.check_conditional_entropy_laws"):
            out["laws"] = [c.check_conditional_entropy_laws(parts[x], parts[y], parts[z])
                           for x, y, z in itertools.product(ds.names, repeat=3)]
        return out

    def check(self, item, out, tr) -> list[str]:
        ds = item["dataset"]
        reference = ref.Reference({n: list(ds[n].labels) for n in ds.names})
        n = len(reference.names)
        similarity = out["metric.check_similarity_axioms"]
        distance = out["metric.check_distance_axioms"]
        monoid = out["algebra.check_monoid_laws"]
        contractivity = out["algebra.check_contractivity"]
        # every law but the triangle clauses is a theorem and must pass; the
        # triangle verdicts must equal the reference's on this dataset
        errors = _check_groups(out["classes"], reference) + _check_matrix(out["matrix"], reference)
        errors += _failures(similarity, allowed=("triangle_bound",))
        errors += _failures(distance, allowed=("triangle_inequality",))
        errors += _failures(monoid) + _failures(contractivity)
        errors += _check_triangle(similarity.check("triangle_bound"),
                                  reference.triangle_bound_margin, reference.names,
                                  exhaustive=True)
        errors += _check_triangle(distance.check("triangle_inequality"),
                                  reference.triangle_inequality_margin, reference.names,
                                  exhaustive=True)
        if monoid.check("associativity").instances != n ** 3:
            errors.append("associativity did not see every ordered triple")
        if contractivity.check("contractivity").instances != n ** 4:
            errors.append("contractivity did not see every ordered quadruple")
        clauses = [clause for law in out["laws"] for clause in law.clauses]
        errors += sorted({f"{cl.name} failed" for cl in clauses if not cl.passed})
        if len(clauses) != 5 * n ** 3:
            errors.append(f"{len(clauses)} conditional-entropy clauses, want {5 * n ** 3}")
        if tr.enabled:
            tr.count("metric.distance_matrix.pairs", n * (n - 1) // 2)
            for span in ("metric.check_similarity_axioms", "metric.check_distance_axioms",
                         "algebra.check_monoid_laws", "algebra.check_contractivity"):
                tr.count(f"{span}.instances", sum(c.instances for c in out[span].checks))
            tr.count("entropy.check_conditional_entropy_laws.clauses", len(clauses))
            tr.count("entropy.check_conditional_entropy_laws.nonvacuous",
                     sum(not cl.vacuous for cl in clauses))
        return errors

    def replay(self, item, out, tr):
        ds = item["dataset"]
        # the laws join and condition every ordered pair of columns
        with tr.span("entropy.check_conditional_entropy_laws", replayed=True):
            _replay(self.catent, tr, ds, itertools.product(ds.names, repeat=2), joins=True)


# ---------------------------------------------------------------------------
# cli-oneshot


SUBCOMMANDS = ("su", "rank", "classes", "dist", "joint",
               "check-metric", "check-monoid", "check-lemma2")
CLI_ROUNDS = 32


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return env


def _floats(text: str) -> dict[str, float]:
    out = {}
    for line in text.splitlines():
        label, _, value = line.rpartition(" ")
        out[label.strip()] = float(value) if value != "undefined" else None
    return out


class Cli:
    """One ``python -m catent.cli`` process per op; a round runs each of the
    eight subcommands once, in a seeded order with seeded arguments, on the
    bundled fixtures."""

    unit = len(SUBCOMMANDS)

    def __init__(self, catent, name: str, inputs: Path):
        self.root = Path(__file__).resolve().parent.parent
        self.data = self.root / "src" / "catent" / "data"
        self.env = cli_env(self.root)

    def build(self, seed: int, tr):
        fixtures = {name: ref.read_csv(self.data / name)
                    for name in ("internship.csv", "indiscernibles.csv")}
        main = "internship.csv"
        cols = list(fixtures[main])
        rng = random.Random(seed)
        items = []
        for _ in range(CLI_ROUNDS):
            order = list(SUBCOMMANDS)
            rng.shuffle(order)
            for sub in order:
                fixture, args = main, []
                if sub == "su":
                    args = rng.sample(cols, 2) + ["--full"]
                elif sub == "rank":
                    args = [rng.choice(cols), "--full"]
                elif sub == "classes":
                    fixture = rng.choice(sorted(fixtures))
                elif sub == "dist":
                    args = rng.sample(cols, rng.randint(3, len(cols))) + ["--full"]
                elif sub == "joint":
                    args = rng.sample(cols, rng.randint(2, 3))
                path = str(self.data / fixture)
                columns = fixtures[fixture]
                items.append({"sub": sub, "fixture": fixture, "args": args,
                              "argv": [sub, path, *args], "columns": columns,
                              "cells": sum(map(len, columns.values()))})
        digest = sha256_json([[it["sub"], it["fixture"], it["args"]] for it in items]
                             + [fixtures])
        return items, digest

    def op(self, item, tr):
        with tr.span(f"cli.{item['sub']}"):
            return subprocess.run(
                [sys.executable, "-m", "catent.cli", *item["argv"]],
                cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=CLI_TIMEOUT_S)

    def check(self, item, proc, tr) -> list[str]:
        columns, sub, args = item["columns"], item["sub"], item["args"]
        reference = ref.Reference(columns)
        names = reference.names
        want_code = 0
        if sub == "check-metric":
            ok = (reference.triangle_bound_slack() >= -TOLERANCE
                  and reference.triangle_inequality_slack() >= -TOLERANCE)
            want_code = 0 if ok else 1
        if proc.returncode != want_code:
            return [f"{sub} exited {proc.returncode}, want {want_code}: {proc.stderr[-300:]}"]
        out = proc.stdout
        errors = []
        if sub == "su":
            a, b = args[:2]
            xs, ys = columns[a], columns[b]
            hx, hy = ref.entropy(xs), ref.entropy(ys)
            want = {"SU": reference.su(a, b), "distance": reference.distance(a, b),
                    "MI": hx + hy - ref.joint_entropy(xs, ys),
                    f"H({a})": hx, f"H({b})": hy, f"H({a},{b})": ref.joint_entropy(xs, ys),
                    f"H({a}|{b})": ref.conditional_entropy(xs, ys),
                    f"H({b}|{a})": ref.conditional_entropy(ys, xs),
                    "entropic_ratio": ref.joint_entropy(xs, ys) / (hx + hy) if hx + hy else None}
            got = _floats(out)
            for key, value in want.items():
                if key not in got or (value is None) != (got[key] is None) or (
                        value is not None and not close(got[key], value)):
                    errors.append(f"su {key} = {got.get(key)!r}, want {value!r}")
        elif sub == "rank":
            cls = args[0]
            got = [line.split("\t") for line in out.splitlines()]
            if sorted(n for n, _ in got) != sorted(n for n in names if n != cls):
                errors.append("rank does not list every feature once")
            want = [reference.su(n, cls) for n, _ in got]
            errors += [f"rank {n} = {v}" for (n, v), w in zip(got, want) if not close(float(v), w)]
            if any(a < b - TOLERANCE for a, b in zip(want, want[1:])):
                errors.append("rank order disagrees with the reference")
        elif sub == "classes":
            got = [line.split(": ", 1)[1].split("  [profile ")[0].split()
                   for line in out.splitlines()]
            if sorted(map(sorted, got)) != sorted(map(sorted, reference.class_groups())):
                errors.append(f"classes {got}")
            for line, group in zip(out.splitlines(), got):
                profile = ",".join(str(p) for p in ref.profile(columns[group[0]]))
                if not line.endswith(f"[profile {profile}]"):
                    errors.append(f"classes profile: {line}")
        elif sub == "dist":
            header, *body = [line.split("\t") for line in out.splitlines()]
            if header[1:] != args[:-1] or [row[0] for row in body] != args[:-1]:
                errors.append("dist names do not match the requested columns")
            for a, row in zip(args[:-1], body):
                for b, v in zip(args[:-1], row[1:]):
                    if not close(float(v), reference.distance(a, b)):
                        errors.append(f"dist {a},{b} = {v}")
        elif sub == "joint":
            rows = list(csv.reader(io.StringIO(out)))
            name, labels = args[0], columns[args[0]]
            for other in args[1:]:
                name = f"({name}*{other})"
                labels = [f"({x},{y})" for x, y in zip(labels, columns[other])]
            if rows[0] != names + [name]:
                errors.append(f"joint header {rows[0]}")
            want_rows = [list(r) for r in zip(*columns.values(), labels)]
            if rows[1:] != want_rows:
                errors.append("joint rows differ from the reference")
        else:
            if not out.rstrip().endswith("overall: PASS" if want_code == 0 else "overall: FAIL"):
                errors.append(f"{sub} verdict line missing")
            if sub == "check-lemma2":
                want = f"checked={len(names) ** 3} "
                if sum(want in line for line in out.splitlines()) != 5:
                    errors.append("check-lemma2 did not check every ordered triple")
        return errors

    def replay(self, item, out, tr):
        pass


WORKLOADS = {
    "table-tall": Table,
    "table-wide-alphabet": Table,
    "population": Population,
    "cli-oneshot": Cli,
}
