"""Unit tests: ANALYZE statistics collection and the cost model's
selectivity/cardinality estimates on known distributions."""

from __future__ import annotations

import datetime

import pytest

import repro
from repro.analyzer.analyzer import Analyzer
from repro.planner import CostBasedPlanner, HeuristicPlanner
from repro.planner.cost import CostModel
from repro.planner.stats import collect_table_stats
from repro.sql.parser import parse_statement


@pytest.fixture
def db():
    database = repro.connect()
    database.execute(
        "CREATE TABLE facts (k integer, grp integer, val float, "
        "label text, day date)"
    )
    rows = [
        (
            i,
            i % 10,
            float(i) / 2.0,
            f"label{i % 4}" if i % 5 else None,
            datetime.date(2020, 1, 1) + datetime.timedelta(days=i % 100),
        )
        for i in range(1000)
    ]
    database.load_table("facts", rows)
    return database


# ---------------------------------------------------------------------------
# ANALYZE collection
# ---------------------------------------------------------------------------


def test_collect_stats_known_distribution(db):
    stats = collect_table_stats(db.catalog.table("facts"))
    assert stats.row_count == 1000
    k = stats.column("k")
    assert k.ndv == 1000 and k.null_frac == 0.0
    assert (k.min_value, k.max_value) == (0, 999)
    grp = stats.column("grp")
    assert grp.ndv == 10
    label = stats.column("label")
    assert label.ndv == 4
    assert label.null_frac == pytest.approx(0.2)
    day = stats.column("day")
    assert day.ndv == 100
    assert day.min_value == datetime.date(2020, 1, 1)
    assert day.max_value == datetime.date(2020, 4, 9)


def test_analyze_statement_and_freshness(db):
    assert db.catalog.stats_for("facts") is None
    result = db.execute("ANALYZE facts")
    assert result.command == "ANALYZE 1"
    assert db.catalog.stats_for("facts").row_count == 1000
    # Appends leave the snapshot in place (it merely lags)...
    db.execute("INSERT INTO facts VALUES (9999, 1, 1.0, 'x', date '2021-01-01')")
    assert db.catalog.stats_for("facts") is not None
    # ...but recreating the heap invalidates it.
    db.execute("DROP TABLE facts")
    db.execute("CREATE TABLE facts (k integer)")
    assert db.catalog.stats_for("facts") is None


def test_analyze_all_and_empty_table(db):
    db.execute("CREATE TABLE empty (a integer)")
    result = db.analyze()
    assert {row[0] for row in result.rows} == {"facts", "empty"}
    empty = db.catalog.stats_for("empty")
    assert empty.row_count == 0
    assert empty.column("a").ndv == 0


# ---------------------------------------------------------------------------
# Selectivity on known distributions
# ---------------------------------------------------------------------------


def _selectivity(db, predicate: str) -> float:
    """Estimated selectivity of a WHERE predicate over ``facts``."""
    db.analyze()
    query = Analyzer(db.catalog).analyze(
        parse_statement(f"SELECT k FROM facts WHERE {predicate}")
    )
    model = CostModel(db.catalog)
    stats = db.catalog.stats_for("facts")
    scope = {
        (0, attno): stats.column(name)
        for attno, name in enumerate(
            db.catalog.table("facts").column_names
        )
    }
    return model.conjunct_selectivity(query.jointree.quals, scope)


def test_equality_selectivity_is_one_over_ndv(db):
    assert _selectivity(db, "grp = 3") == pytest.approx(0.1)
    assert _selectivity(db, "k = 17") == pytest.approx(0.001)


def test_range_selectivity_interpolates(db):
    # k uniform over [0, 999]: k < 250 keeps ~25%.
    assert _selectivity(db, "k < 250") == pytest.approx(0.25, abs=0.02)
    assert _selectivity(db, "k >= 900") == pytest.approx(0.1, abs=0.02)
    # Dates interpolate through day arithmetic.
    assert _selectivity(db, "day < date '2020-01-26'") == pytest.approx(
        0.25, abs=0.03
    )


def test_null_and_composite_selectivity(db):
    assert _selectivity(db, "label IS NULL") == pytest.approx(0.2)
    assert _selectivity(db, "label IS NOT NULL") == pytest.approx(0.8)
    # AND multiplies; OR adds with the overlap correction.
    assert _selectivity(db, "grp = 3 AND k < 250") == pytest.approx(
        0.025, abs=0.005
    )
    or_sel = _selectivity(db, "grp = 3 OR grp = 4")
    assert or_sel == pytest.approx(0.1 + 0.1 - 0.01)


def test_in_list_selectivity(db):
    # The analyzer normalizes small IN lists to OR-of-equalities, so the
    # estimate composes per-value equality terms with the overlap
    # correction.  label's values come from the MCV list, whose
    # fractions are of *all* rows — 20% NULLs leave each of the 4
    # labels at 0.2, sharper than the NULL-blind 1/ndv = 0.25.
    assert _selectivity(db, "grp IN (1, 2, 3)") == pytest.approx(
        1.0 - (1.0 - 0.1) ** 3
    )
    assert _selectivity(db, "label IN ('label0', 'label1')") == pytest.approx(
        1.0 - (1.0 - 0.2) ** 2
    )


def test_failing_filter_constants_are_not_constants(db):
    """A constant the row compiler cannot evaluate — ``1/0``, a function
    it does not know — is priced as an opaque operand; the statement
    still plans, and the failure stays the executor's to report."""
    from repro.analyzer import expressions as ex
    from repro.errors import ExecutionError
    from repro.planner.cost import DEFAULT_RANGE_SEL, _NO_CONST, _const_value

    assert _selectivity(db, "k < 1/0") == DEFAULT_RANGE_SEL
    with pytest.raises(ExecutionError, match="division by zero"):
        db.execute("SELECT k FROM facts WHERE k < 1/0")

    one = ex.Const(1, None)
    unknown = ex.FuncExpr("no_such_function", (one,), None)
    assert _const_value(unknown) is _NO_CONST
    assert _const_value(ex.OpExpr("+", (one, ex.Const("x", None)), None)) is _NO_CONST
    assert _const_value(ex.OpExpr("+", (one, one), None)) == 2


def test_compiler_bugs_in_constant_evaluation_surface(db, monkeypatch):
    """Only the typed evaluation failures mean "not a constant": a bug in
    the expression compiler must not silently become a worse estimate."""
    from repro.executor.expr_eval import ExprCompiler

    def broken(self, expr):
        raise KeyError("compiler bug")

    monkeypatch.setattr(ExprCompiler, "compile", broken)
    with pytest.raises(KeyError, match="compiler bug"):
        _selectivity(db, "k < 1 + 1")


# ---------------------------------------------------------------------------
# Cardinality estimates on plans
# ---------------------------------------------------------------------------


def _plan(db, sql, cost_based=True):
    query = Analyzer(db.catalog).analyze(parse_statement(sql))
    cls = CostBasedPlanner if cost_based else HeuristicPlanner
    return cls(db.catalog).plan(query)


def test_scan_estimate_uses_live_rowcount_and_stats(db):
    db.analyze()
    plan = _plan(db, "SELECT k FROM facts WHERE grp = 3")
    # SliceNode over the filtered scan; estimates flow through.
    assert plan.estimate == pytest.approx(100, rel=0.1)


def test_join_estimate_fk_shape(db):
    db.execute("CREATE TABLE dims (d integer, name text)")
    db.load_table("dims", [(i, f"d{i}") for i in range(10)])
    db.analyze()
    plan = _plan(db, "SELECT 1 FROM facts, dims WHERE grp = d")
    # |facts|·|dims| / max(ndv(grp), ndv(d)) = 1000·10/10 = 1000.
    assert plan.estimate == pytest.approx(1001, rel=0.1)


def test_group_estimate_uses_key_ndv(db):
    db.analyze()
    plan = _plan(db, "SELECT grp, count(*) FROM facts GROUP BY grp")
    assert plan.estimate == pytest.approx(10, rel=0.1)


def test_group_estimate_extract_year_uses_date_range(db):
    db.analyze()
    plan = _plan(
        db,
        "SELECT extract(year FROM day), count(*) FROM facts "
        "GROUP BY extract(year FROM day)",
    )
    # day spans a single calendar year.
    assert plan.estimate == pytest.approx(1, abs=0.5)


def test_estimates_survive_without_analyze(db):
    # No statistics: defaults apply, plans still build and run.
    plan = _plan(db, "SELECT k FROM facts WHERE grp = 3 AND k < 250")
    assert plan.estimate >= 1.0
    from repro.executor.context import ExecContext

    assert len(list(plan.run(ExecContext()))) == 25


def test_explain_analyze_shows_est_and_flags_misestimates(db):
    db.analyze()
    text = db.explain("SELECT k FROM facts WHERE grp = 3", analyze=True)
    assert "est=" in text
    # grp = 3 actually keeps 100 rows and the estimate agrees: no flag.
    assert "misestimate" not in text
    # A correlated predicate the model cannot see through: k and grp
    # align perfectly (k % 10), estimated 0.1·0.001 but actual 1 row.
    text = db.explain(
        "SELECT k FROM facts WHERE grp = 3 AND k = 13", analyze=True
    )
    assert "est=" in text


def test_batch_size_hint_bounds_fanout(db):
    # A fanning-out join (10 matches per probe row) caps the batch size.
    db.execute("CREATE TABLE wide (g integer)")
    db.load_table("wide", [(i % 3,) for i in range(90000)])
    db.execute("CREATE TABLE other (g2 integer)")
    db.load_table("other", [(i % 3,) for i in range(300)])
    db.analyze()
    from repro.storage.chunk import DEFAULT_BATCH_SIZE

    plan = _plan(db, "SELECT 1 FROM wide, other WHERE g = g2")
    assert plan.batch_size_hint is not None
    assert plan.batch_size_hint < DEFAULT_BATCH_SIZE
    plan = _plan(db, "SELECT k FROM facts")
    assert plan.batch_size_hint == DEFAULT_BATCH_SIZE


def test_scan_chunks_honors_batch_size_with_cached_columns():
    """Regression: a bounded batch size slices the cached columnar heap
    instead of streaming the whole table as one chunk."""
    db = repro.connect()
    db.execute("CREATE TABLE t (a integer)")
    db.load_table("t", [(i,) for i in range(1000)])
    table = db.catalog.table("t")
    table.columnar()  # populate the cache first
    sizes = [len(chunk) for chunk in table.scan_chunks(batch_size=256)]
    assert sizes == [256, 256, 256, 232]
    narrow = [len(c) for c in table.scan_chunks(batch_size=256, columns=[0])]
    assert narrow == sizes
    whole = list(table.scan_chunks(batch_size=2048))
    assert len(whole) == 1


# ---------------------------------------------------------------------------
# Histograms, MCV lists, and LIKE selectivity
# ---------------------------------------------------------------------------


def test_collect_mcv_on_skewed_column(db):
    db.execute("CREATE TABLE skew (v integer)")
    # 600 copies of 0, 200 of 1, 200 spread uniquely.
    db.load_table(
        "skew",
        [(0,)] * 600 + [(1,)] * 200 + [(i + 100,) for i in range(200)],
    )
    stats = collect_table_stats(db.catalog.table("skew"))
    mcv = dict(stats.column("v").mcv)
    assert mcv[0] == pytest.approx(0.6)
    assert mcv[1] == pytest.approx(0.2)
    # Unique tail values never make the list.
    assert all(value in (0, 1) for value in mcv)


def test_unique_column_has_no_mcv_but_histogram(db):
    stats = collect_table_stats(db.catalog.table("facts"))
    k = stats.column("k")
    assert k.mcv == ()
    assert len(k.histogram) >= 2
    assert k.histogram_frac == pytest.approx(1.0)
    # Equi-depth over uniform [0, 999]: bounds spread evenly.
    assert k.histogram[0] == 0 and k.histogram[-1] == 999
    mid = k.histogram[len(k.histogram) // 2]
    assert mid == pytest.approx(500, abs=60)


def test_mcv_equality_beats_uniform_assumption(db):
    db.execute("CREATE TABLE skew (v integer)")
    db.load_table(
        "skew",
        [(0,)] * 600 + [(1,)] * 200 + [(i + 100,) for i in range(200)],
    )
    db.analyze()
    model = CostModel(db.catalog)
    scope = {(0, 0): db.catalog.stats_for("skew").column("v")}
    query = Analyzer(db.catalog).analyze(
        parse_statement("SELECT v FROM skew WHERE v = 0")
    )
    # The uniform 1/ndv guess would say ~0.5%; the MCV list knows 60%.
    assert model.conjunct_selectivity(
        query.jointree.quals, scope
    ) == pytest.approx(0.6)


def test_histogram_range_beats_minmax_interpolation(db):
    db.execute("CREATE TABLE lop (v integer)")
    # 990 values in [0, 99], 10 outliers at 1e6: min/max interpolation
    # would put "v < 100" at ~0.01%; the equi-depth histogram sees ~99%.
    db.load_table(
        "lop", [(i % 100,) for i in range(990)] + [(1_000_000,)] * 10
    )
    db.analyze()
    model = CostModel(db.catalog)
    scope = {(0, 0): db.catalog.stats_for("lop").column("v")}
    query = Analyzer(db.catalog).analyze(
        parse_statement("SELECT v FROM lop WHERE v < 100")
    )
    assert model.conjunct_selectivity(query.jointree.quals, scope) > 0.8


def test_like_prefix_selectivity_from_histogram(db):
    # label values: label0..label3 on 80% of rows ('label%' matches all
    # of them), NULLs on the rest.
    assert _selectivity(db, "label LIKE 'label%'") == pytest.approx(
        0.8, abs=0.05
    )
    assert _selectivity(db, "label LIKE 'zzz%'") < 0.01
    # A narrower prefix keeps only one of the four labels.
    assert _selectivity(db, "label LIKE 'label0%'") == pytest.approx(
        0.2, abs=0.05
    )


def test_like_unanchored_matches_value_sample(db):
    # '%bel0%' matches label0 only: the MCV/bound sample pins ~20%.
    assert _selectivity(db, "label LIKE '%bel0%'") == pytest.approx(
        0.2, abs=0.07
    )
    # Matches every non-NULL label.
    assert _selectivity(db, "label LIKE '%label%'") == pytest.approx(
        0.8, abs=0.07
    )


def test_histograms_survive_wal_checkpoint(tmp_path):
    db = repro.connect(wal_dir=str(tmp_path))
    db.execute("CREATE TABLE t (v integer, s text)")
    db.load_table(
        "t", [(i % 7, f"s{i % 3}") for i in range(300)] + [(None, None)] * 30
    )
    db.execute("ANALYZE")
    before = db.catalog.stats_for("t").column("v")
    db.checkpoint()
    db.close()
    revived = repro.connect(wal_dir=str(tmp_path))
    after = revived.catalog.stats_for("t").column("v")
    assert after is not None
    assert after.mcv == before.mcv
    assert after.histogram == before.histogram
    assert after.histogram_frac == pytest.approx(before.histogram_frac)
    assert after.null_frac == pytest.approx(before.null_frac)


def test_range_pair_estimates_interval_mass(db):
    db.analyze()
    # Independent marginals would say 0.35·0.40 = 14%; the paired
    # bounds measure the [250, 350) interval: ~10%.
    plan = _plan(db, "SELECT k FROM facts WHERE k >= 250 AND k < 350")
    assert plan.estimate == pytest.approx(100, rel=0.25)
    # Folded constant arithmetic on the bound still pairs up.
    plan = _plan(
        db,
        "SELECT k FROM facts WHERE day >= date '2020-01-21' "
        "AND day < date '2020-01-21' + INTERVAL '10' DAY",
    )
    assert plan.estimate == pytest.approx(100, rel=0.35)
