"""Deterministic TPC-H data generator (dbgen equivalent).

Row counts follow the specification's scaling rules::

    supplier = SF * 10_000        customer = SF * 150_000
    part     = SF * 200_000       orders   = SF * 1_500_000
    partsupp = 4 * part           lineitem = 1..7 lines per order

Value distributions preserve what the benchmark queries select on:
uniform dates in [1992-01-01, 1998-08-02], discounts in [0, 0.10],
quantities in [1, 50], the five market segments, the seven ship modes,
and the comment patterns used by Q13 and Q16.  Everything is generated
from a seeded ``random.Random``, so a (scale_factor, seed) pair always
yields the same database -- benchmark configurations are reproducible.

Stream identity: :func:`generate` draws the Mersenne-Twister stream
exactly as the plain ``randint``/``choice``/``uniform`` spelling did,
so a (scale_factor, seed) pair yields the same tables -- values, types
and row order -- as every earlier version of this module.  It calls
``getrandbits`` and ``random`` directly, spelling each draw the way
CPython 3.11-3.13 does:

    randint(a, b)   == a + below(b - a + 1)
    choice(s)       == s[below(len(s))]
    uniform(a, b)   == a + (b - a) * random()
    below(n)        == r = getrandbits(k) until r < n, k = n.bit_length()

(``below`` is ``Random._randbelow``).  ``rng.sample`` (part names) is
still called as is.  ``tests/tpch/test_dbgen_reference.py`` pins both
halves: the tables against a frozen copy of the plain generator, and
the spellings against ``random.Random`` itself.
"""

from __future__ import annotations

import datetime
import random
from dataclasses import dataclass, field

from repro.database import PermDatabase
from repro.tpch import text_pools as pools
from repro.tpch.schema import ALL_SCHEMAS

START_DATE = datetime.date(1992, 1, 1)
END_DATE = datetime.date(1998, 8, 2)
CURRENT_DATE = datetime.date(1995, 6, 17)

_DATE_RANGE_DAYS = (END_DATE - START_DATE).days


@dataclass
class TPCHData:
    """All eight generated tables, as lists of row tuples."""

    scale_factor: float
    seed: int
    region: list[tuple] = field(default_factory=list)
    nation: list[tuple] = field(default_factory=list)
    supplier: list[tuple] = field(default_factory=list)
    part: list[tuple] = field(default_factory=list)
    partsupp: list[tuple] = field(default_factory=list)
    customer: list[tuple] = field(default_factory=list)
    orders: list[tuple] = field(default_factory=list)
    lineitem: list[tuple] = field(default_factory=list)

    def tables(self) -> dict[str, list[tuple]]:
        return {
            "region": self.region,
            "nation": self.nation,
            "supplier": self.supplier,
            "part": self.part,
            "partsupp": self.partsupp,
            "customer": self.customer,
            "orders": self.orders,
            "lineitem": self.lineitem,
        }

    def total_rows(self) -> int:
        return sum(len(rows) for rows in self.tables().values())


def generate(scale_factor: float = 0.001, seed: int = 42) -> TPCHData:
    """Generate a TPC-H database at the given scale factor."""
    rng = random.Random(seed)
    bits = rng.getrandbits
    unit = rng.random
    data = TPCHData(scale_factor=scale_factor, seed=seed)

    n_supplier = max(int(scale_factor * 10_000), 3)
    n_part = max(int(scale_factor * 200_000), 10)
    n_customer = max(int(scale_factor * 150_000), 10)
    n_orders = max(int(scale_factor * 1_500_000), 30)

    words = pools.COMMENT_WORDS
    n_words = len(words)
    k_words = n_words.bit_length()

    def below(n: int) -> int:
        # rng._randbelow(n): n.bit_length() random bits, redrawn until < n.
        k = n.bit_length()
        r = bits(k)
        while r >= n:
            r = bits(k)
        return r

    def comment(lo: int, hi: int) -> str:
        # randint(lo, hi) words, each a choice(COMMENT_WORDS).
        n = hi - lo + 1
        k = n.bit_length()
        r = bits(k)
        while r >= n:
            r = bits(k)
        picked = []
        for _ in range(lo + r):
            r = bits(k_words)
            while r >= n_words:
                r = bits(k_words)
            picked.append(words[r])
        return " ".join(picked)

    def phone(nationkey: int) -> str:
        return (
            f"{10 + nationkey}-{100 + below(900)}-"
            f"{100 + below(900)}-{1000 + below(9000)}"
        )

    # region / nation: fixed 5 + 25 rows.
    for key, name in enumerate(pools.REGIONS):
        data.region.append((key, name, comment(4, 10)))
    for key, (name, regionkey) in enumerate(pools.NATIONS):
        data.nation.append((key, name, regionkey, comment(4, 10)))

    # supplier; ~5 per 10000 get the Q16 complaints pattern.
    for key in range(1, n_supplier + 1):
        nationkey = below(25)
        remark = comment(6, 12)
        roll = unit()
        if roll < 0.0005 or (n_supplier <= 100 and roll < 0.05):
            remark = f"{remark} Customer {comment(1, 2)} Complaints {remark}"
        data.supplier.append(
            (
                key,
                f"Supplier#{key:09d}",
                comment(2, 3),
                nationkey,
                phone(nationkey),
                round(-999.99 + (9999.99 - -999.99) * unit(), 2),
                remark,
            )
        )

    # part / partsupp.  part_retail[key] and part_suppliers[key] feed the
    # lineitem loop; index 0 is a placeholder so part keys index directly.
    syllable_1 = pools.TYPE_SYLLABLE_1
    syllable_2 = pools.TYPE_SYLLABLE_2
    syllable_3 = pools.TYPE_SYLLABLE_3
    container_1 = pools.CONTAINER_SYLLABLE_1
    container_2 = pools.CONTAINER_SYLLABLE_2
    part_retail = [0.0]
    part_suppliers = [[]]
    for key in range(1, n_part + 1):
        name = " ".join(rng.sample(pools.P_NAME_WORDS, 5))
        mfgr_id = 1 + below(5)
        brand_id = 1 + below(5)
        part_type = (
            f"{syllable_1[below(len(syllable_1))]} "
            f"{syllable_2[below(len(syllable_2))]} "
            f"{syllable_3[below(len(syllable_3))]}"
        )
        retail = round(
            (90000 + (key % 20001) * 100 / 2000.0 + 100 * (key % 1000)) / 100.0, 2
        )
        part_retail.append(retail)
        data.part.append(
            (
                key,
                name,
                f"Manufacturer#{mfgr_id}",
                f"Brand#{mfgr_id}{brand_id}",
                part_type,
                1 + below(50),
                f"{container_1[below(len(container_1))]} "
                f"{container_2[below(len(container_2))]}",
                retail,
                comment(2, 5),
            )
        )
        suppliers = []
        for supplier_offset in range(4):
            suppkey = (
                (key + supplier_offset * (n_supplier // 4 + 1)) % n_supplier
            ) + 1
            suppliers.append(suppkey)
            data.partsupp.append(
                (
                    key,
                    suppkey,
                    1 + below(9999),
                    round(1.0 + (1000.0 - 1.0) * unit(), 2),
                    comment(10, 20),
                )
            )
        part_suppliers.append(suppliers)

    # customer.
    segments = pools.SEGMENTS
    for key in range(1, n_customer + 1):
        nationkey = below(25)
        data.customer.append(
            (
                key,
                f"Customer#{key:09d}",
                comment(2, 3),
                nationkey,
                phone(nationkey),
                round(-999.99 + (9999.99 - -999.99) * unit(), 2),
                segments[below(len(segments))],
                comment(6, 12),
            )
        )

    # orders / lineitem.  Dates are days since START_DATE, and every one
    # falls in [0, _DATE_RANGE_DAYS]: dates[day] is its value.  The line
    # loop, which draws most of the stream, spells each draw inline (the
    # loop of below(), with n.bit_length() written out or precomputed).
    first_day = START_DATE.toordinal()
    dates = [
        datetime.date.fromordinal(first_day + day)
        for day in range(_DATE_RANGE_DAYS + 1)
    ]
    current_day = (CURRENT_DATE - START_DATE).days
    k_part = n_part.bit_length()
    instructions = pools.SHIP_INSTRUCTIONS
    n_instructions = len(instructions)
    k_instructions = n_instructions.bit_length()
    modes = pools.SHIP_MODES
    n_modes = len(modes)
    k_modes = n_modes.bit_length()
    priorities = pools.PRIORITIES
    n_clerks = max(n_orders // 1000, 1)
    orders_append = data.orders.append
    lineitem_append = data.lineitem.append
    for key in range(1, n_orders + 1):
        custkey = 1 + below(n_customer)
        order_day = below(_DATE_RANGE_DAYS - 150)
        orderdate = dates[order_day]
        remark = comment(5, 12)
        if unit() < 0.01:
            remark = f"{remark} special{comment(1, 2)}requests {remark}"
        n_lines = 1 + below(7)
        total = 0.0
        all_f = True
        any_f = False
        for line_number in range(1, n_lines + 1):
            r = bits(k_part)  # randint(1, n_part)
            while r >= n_part:
                r = bits(k_part)
            partkey = 1 + r
            r = bits(3)  # choice(part_suppliers[partkey]), always 4 long
            while r >= 4:
                r = bits(3)
            suppkey = part_suppliers[partkey][r]
            r = bits(6)  # randint(1, 50)
            while r >= 50:
                r = bits(6)
            quantity = float(1 + r)
            extended = round(quantity * part_retail[partkey], 2)
            r = bits(4)  # randint(0, 10)
            while r >= 11:
                r = bits(4)
            discount = r / 100.0
            r = bits(4)  # randint(0, 8)
            while r >= 9:
                r = bits(4)
            tax = r / 100.0
            r = bits(7)  # randint(1, 121)
            while r >= 121:
                r = bits(7)
            ship_day = order_day + 1 + r
            r = bits(6)  # randint(30, 90)
            while r >= 61:
                r = bits(6)
            commit_day = order_day + 30 + r
            r = bits(5)  # randint(1, 30)
            while r >= 30:
                r = bits(5)
            receipt_day = ship_day + 1 + r
            if receipt_day <= current_day:
                returnflag = "R" if unit() < 0.5 else "A"
            else:
                returnflag = "N"
            if ship_day <= current_day:
                linestatus = "F"
                any_f = True
            else:
                linestatus = "O"
                all_f = False
            total += extended * (1 + tax) * (1 - discount)
            r = bits(k_instructions)
            while r >= n_instructions:
                r = bits(k_instructions)
            instruction = instructions[r]
            r = bits(k_modes)
            while r >= n_modes:
                r = bits(k_modes)
            lineitem_append(
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
                    dates[ship_day],
                    dates[commit_day],
                    dates[receipt_day],
                    instruction,
                    modes[r],
                    comment(2, 6),
                )
            )
        if all_f:
            status = "F"
        elif any_f:
            status = "P"
        else:
            status = "O"
        orders_append(
            (
                key,
                custkey,
                status,
                round(total, 2),
                orderdate,
                priorities[below(len(priorities))],
                f"Clerk#{1 + below(n_clerks):09d}",
                0,
                remark,
            )
        )
    return data


def load_into(db: PermDatabase, data: TPCHData) -> None:
    """Create the TPC-H schema in ``db`` and load the generated rows."""
    for schema in ALL_SCHEMAS:
        db.create_table(schema)
    for name, rows in data.tables().items():
        db.load_table(name, rows)


def tpch_database(
    scale_factor: float = 0.001, seed: int = 42, **db_kwargs
) -> PermDatabase:
    """Convenience: a fresh database pre-loaded with TPC-H data.

    Extra keyword arguments go to :class:`PermDatabase` (e.g.
    ``wal_dir=...`` for a durable database — the bulk load happens
    through the programmatic helpers, which bypass the WAL, so it is
    checkpointed afterwards to make the loaded rows durable).
    """
    db = PermDatabase(**db_kwargs)
    load_into(db, generate(scale_factor, seed))
    if db.durable:
        db.checkpoint()
    return db
