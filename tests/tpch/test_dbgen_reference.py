"""The generator's stream-identity contract, pinned three ways.

``generate`` calls ``getrandbits``/``random`` directly instead of
``randint``/``choice``/``uniform``.  These tests hold it to the tables
the plain spelling produced:

1. ``reference_generate`` below is the plain generator, frozen; every
   table must equal it value for value, with equal value types.
2. Run under ``sys.setprofile``, ``generate`` makes no Python-level call
   to ``randint``/``randrange``/``choice``/``uniform``/``_randbelow``
   except the ones ``rng.sample`` makes itself.
3. The spellings ``generate`` inlines (CPython 3.11-3.13's own, via the
   private ``Random._randbelow``) equal ``random.Random``'s methods on
   twin generators, so a CPython that changes them fails here first.
"""

from __future__ import annotations

import datetime
import random
import sys
from collections import Counter

import pytest

from repro.tpch import text_pools as pools
from repro.tpch.dbgen import TPCHData, generate

START_DATE = datetime.date(1992, 1, 1)
END_DATE = datetime.date(1998, 8, 2)
CURRENT_DATE = datetime.date(1995, 6, 17)

_DATE_RANGE_DAYS = (END_DATE - START_DATE).days


# -- the plain generator, frozen -------------------------------------------


def _comment(rng: random.Random, min_words: int = 4, max_words: int = 10) -> str:
    count = rng.randint(min_words, max_words)
    return " ".join(rng.choice(pools.COMMENT_WORDS) for _ in range(count))


def _phone(rng: random.Random, nationkey: int) -> str:
    return (
        f"{10 + nationkey}-{rng.randint(100, 999)}-"
        f"{rng.randint(100, 999)}-{rng.randint(1000, 9999)}"
    )


def reference_generate(scale_factor: float = 0.001, seed: int = 42) -> TPCHData:
    """The plain ``randint``/``choice``/``uniform`` generator, kept
    unchanged: ``generate`` must match it draw for draw."""
    rng = random.Random(seed)
    data = TPCHData(scale_factor=scale_factor, seed=seed)

    n_supplier = max(int(scale_factor * 10_000), 3)
    n_part = max(int(scale_factor * 200_000), 10)
    n_customer = max(int(scale_factor * 150_000), 10)
    n_orders = max(int(scale_factor * 1_500_000), 30)

    # region / nation: fixed 5 + 25 rows.
    for key, name in enumerate(pools.REGIONS):
        data.region.append((key, name, _comment(rng)))
    for key, (name, regionkey) in enumerate(pools.NATIONS):
        data.nation.append((key, name, regionkey, _comment(rng)))

    # supplier; ~5 per 10000 get the Q16 complaints pattern.
    for key in range(1, n_supplier + 1):
        nationkey = rng.randrange(25)
        comment = _comment(rng, 6, 12)
        roll = rng.random()
        if roll < 0.0005 or (n_supplier <= 100 and roll < 0.05):
            comment = f"{comment} Customer {_comment(rng, 1, 2)} Complaints {comment}"
        data.supplier.append(
            (
                key,
                f"Supplier#{key:09d}",
                _comment(rng, 2, 3),
                nationkey,
                _phone(rng, nationkey),
                round(rng.uniform(-999.99, 9999.99), 2),
                comment,
            )
        )

    # part / partsupp.
    for key in range(1, n_part + 1):
        name = " ".join(rng.sample(pools.P_NAME_WORDS, 5))
        mfgr_id = rng.randint(1, 5)
        brand_id = rng.randint(1, 5)
        part_type = (
            f"{rng.choice(pools.TYPE_SYLLABLE_1)} "
            f"{rng.choice(pools.TYPE_SYLLABLE_2)} "
            f"{rng.choice(pools.TYPE_SYLLABLE_3)}"
        )
        retail = round(
            (90000 + (key % 20001) * 100 / 2000.0 + 100 * (key % 1000)) / 100.0, 2
        )
        data.part.append(
            (
                key,
                name,
                f"Manufacturer#{mfgr_id}",
                f"Brand#{mfgr_id}{brand_id}",
                part_type,
                rng.randint(1, 50),
                f"{rng.choice(pools.CONTAINER_SYLLABLE_1)} "
                f"{rng.choice(pools.CONTAINER_SYLLABLE_2)}",
                retail,
                _comment(rng, 2, 5),
            )
        )
        for supplier_offset in range(4):
            suppkey = (
                (key + supplier_offset * (n_supplier // 4 + 1)) % n_supplier
            ) + 1
            data.partsupp.append(
                (
                    key,
                    suppkey,
                    rng.randint(1, 9999),
                    round(rng.uniform(1.0, 1000.0), 2),
                    _comment(rng, 10, 20),
                )
            )

    # customer.
    for key in range(1, n_customer + 1):
        nationkey = rng.randrange(25)
        data.customer.append(
            (
                key,
                f"Customer#{key:09d}",
                _comment(rng, 2, 3),
                nationkey,
                _phone(rng, nationkey),
                round(rng.uniform(-999.99, 9999.99), 2),
                rng.choice(pools.SEGMENTS),
                _comment(rng, 6, 12),
            )
        )

    # orders / lineitem.
    part_retail = {row[0]: row[7] for row in data.part}
    part_suppliers: dict[int, list[int]] = {}
    for row in data.partsupp:
        part_suppliers.setdefault(row[0], []).append(row[1])

    line_counter = 0
    for key in range(1, n_orders + 1):
        custkey = rng.randint(1, n_customer)
        orderdate = START_DATE + datetime.timedelta(
            days=rng.randint(0, _DATE_RANGE_DAYS - 151)
        )
        comment = _comment(rng, 5, 12)
        if rng.random() < 0.01:
            comment = f"{comment} special{_comment(rng, 1, 2)}requests {comment}"
        n_lines = rng.randint(1, 7)
        total = 0.0
        lines: list[tuple] = []
        all_f = True
        any_f = False
        for line_number in range(1, n_lines + 1):
            partkey = rng.randint(1, n_part)
            suppkey = rng.choice(part_suppliers[partkey])
            quantity = float(rng.randint(1, 50))
            extended = round(quantity * part_retail[partkey], 2)
            discount = rng.randint(0, 10) / 100.0
            tax = rng.randint(0, 8) / 100.0
            shipdate = orderdate + datetime.timedelta(days=rng.randint(1, 121))
            commitdate = orderdate + datetime.timedelta(days=rng.randint(30, 90))
            receiptdate = shipdate + datetime.timedelta(days=rng.randint(1, 30))
            if receiptdate <= CURRENT_DATE:
                returnflag = "R" if rng.random() < 0.5 else "A"
            else:
                returnflag = "N"
            linestatus = "F" if shipdate <= CURRENT_DATE else "O"
            if linestatus == "F":
                any_f = True
            else:
                all_f = False
            total += extended * (1 + tax) * (1 - discount)
            lines.append(
                (
                    key,
                    partkey,
                    suppkey,
                    line_number,
                    quantity,
                    extended,
                    discount,
                    tax,
                    returnflag,
                    linestatus,
                    shipdate,
                    commitdate,
                    receiptdate,
                    rng.choice(pools.SHIP_INSTRUCTIONS),
                    rng.choice(pools.SHIP_MODES),
                    _comment(rng, 2, 6),
                )
            )
            line_counter += 1
        if all_f:
            status = "F"
        elif any_f:
            status = "P"
        else:
            status = "O"
        data.orders.append(
            (
                key,
                custkey,
                status,
                round(total, 2),
                orderdate,
                rng.choice(pools.PRIORITIES),
                f"Clerk#{rng.randint(1, max(n_orders // 1000, 1)):09d}",
                0,
                comment,
            )
        )
        data.lineitem.extend(lines)
    return data


# -- 1. identical tables -------------------------------------------------


def _assert_same_tables(got: TPCHData, want: TPCHData) -> None:
    for name, want_rows in want.tables().items():
        got_rows = got.tables()[name]
        assert got_rows == want_rows, name
        assert [tuple(map(type, row)) for row in got_rows] == [
            tuple(map(type, row)) for row in want_rows
        ], name


@pytest.mark.parametrize(
    "scale_factor, seed",
    [(0.0001, 1), (0.001, 42), (0.002, 7), (0.005, 42), (0.01, 42)],
)
def test_tables_equal_reference(scale_factor, seed):
    _assert_same_tables(
        generate(scale_factor, seed), reference_generate(scale_factor, seed)
    )


def test_tables_equal_reference_past_small_sf_shortcut():
    # 101 suppliers: only roll < 0.0005 adds the Q16 pattern, and with
    # seed 3 one supplier draws it, so the branch's extra draws run.
    got = generate(0.0101, 3)
    _assert_same_tables(got, reference_generate(0.0101, 3))
    assert len(got.supplier) > 100
    assert any("Complaints" in row[6] for row in got.supplier)


# -- 2. no per-draw method frames -----------------------------------------

_DRAW_METHODS = (
    "randint",
    "randrange",
    "choice",
    "uniform",
    "_randbelow_with_getrandbits",
)


def _draw_method_calls(scale_factor: float) -> tuple[Counter, int]:
    """Python-level calls into the draw methods, keyed by (method,
    called from ``sample``), and the number of ``sample`` calls."""
    watched = {getattr(random.Random, name).__code__ for name in _DRAW_METHODS}
    sample_code = random.Random.sample.__code__
    calls: Counter = Counter()
    samples = 0

    def profiler(frame, event, arg):
        nonlocal samples
        if event != "call":
            return
        if frame.f_code is sample_code:
            samples += 1
        elif frame.f_code in watched:
            calls[frame.f_code.co_name, frame.f_back.f_code is sample_code] += 1

    sys.setprofile(profiler)
    try:
        generate(scale_factor, 42)
    finally:
        sys.setprofile(None)
    return calls, samples


def test_draws_make_no_method_calls_outside_sample():
    calls, samples = _draw_method_calls(0.001)
    assert samples == 200  # one per part: " ".join(rng.sample(words, 5))
    assert set(calls) == {("_randbelow_with_getrandbits", True)}
    # sample(pool, 5) draws five distinct indexes, redrawing on repeats.
    assert 5 * samples <= sum(calls.values()) < 6 * samples
    # The randint/choice spelling made 323 591 such calls at SF 0.001.
    assert sum(calls.values()) < 323_591 // 100


# -- 3. the spellings generate inlines -----------------------------------


def _below(getrandbits, n: int) -> int:
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def test_randbelow_is_the_getrandbits_loop():
    assert random.Random._randbelow is random.Random._randbelow_with_getrandbits


_POOLS = [
    pools.COMMENT_WORDS,
    pools.TYPE_SYLLABLE_1,
    pools.TYPE_SYLLABLE_2,
    pools.TYPE_SYLLABLE_3,
    pools.CONTAINER_SYLLABLE_1,
    pools.CONTAINER_SYLLABLE_2,
    pools.SEGMENTS,
    pools.PRIORITIES,
    pools.SHIP_MODES,
    pools.SHIP_INSTRUCTIONS,
    [1, 2, 3, 4],  # a part's four suppliers
    ["only"],
    list(range(2**10)),
]

# Every randint range generate draws from, plus n = 1 and powers of two.
_RANGES = [
    (0, 0), (1, 1), (1, 2), (0, 3), (0, 7), (1, 32), (0, 2**16 - 1),
    (0, 2**16), (1, 5), (1, 7), (0, 8), (0, 10), (1, 30), (30, 90),
    (1, 50), (1, 121), (100, 999), (1000, 9999), (1, 9999), (0, 24),
    (0, _DATE_RANGE_DAYS - 151), (1, 20), (1, 200), (1, 2000), (1, 150),
    (1, 1500), (1, 15000), (2, 3), (2, 5), (2, 6),
    (4, 10), (5, 12), (6, 12), (10, 20),
]


@pytest.mark.parametrize("seed", [0, 42, 2**40 + 3])
def test_inlined_spellings_equal_random_methods(seed):
    plain = random.Random(seed)
    inlined = random.Random(seed)
    bits = inlined.getrandbits
    for _ in range(200):
        for a, b in _RANGES:
            assert plain.randint(a, b) == a + _below(bits, b - a + 1)
        assert plain.randrange(25) == _below(bits, 25)
        for pool in _POOLS:
            assert plain.choice(pool) == pool[_below(bits, len(pool))]
        for a, b in ((-999.99, 9999.99), (1.0, 1000.0)):
            assert plain.uniform(a, b) == a + (b - a) * inlined.random()
        assert plain.random() == inlined.random()
    assert plain.getstate() == inlined.getstate()
