"""Parametrised SSB statement streams for the serving workload.

``repro.bench.serve_bench`` replays the 13 fixed SSB queries, so its
semantic cache saturates after the first flight and every later request
measures a dict lookup.  This generator keeps the 13 query *shapes* of
``repro.ssb.sql_text.SQL_TEXT`` but draws their constants per request:

* every constant comes from the generated dimension tables (a value that
  is not in the data is never asked for);
* each parameter domain is put in a seeded random order and sampled by
  rank with a Zipf(1.1) law, so a few constants are hot and statements
  share them;
* range parameters (discount, quantity, year span, brand span) are drawn
  from families of *nested* windows, so a wide cached window can answer a
  narrower later one by re-filtering (the cache's subsumption path);
* ``SPACE_SIZE`` distinct texts drawn this way are the statement space.
  Rank ``i`` is shaped after template ``i mod 13`` and bound to one
  engine session (ranks 2, 6, 10, ... to the row store), and a request
  is one Zipf(1.1) draw over the ranks.

What the seed decides is the database and the constants at every rank.
What it does not decide is the *sequence of ranks* each client asks for:
that is fixed, so the share of repeats, the mix of query shapes and the
engine split are the same property of the inputs for every seed, and
runs on different seeds measure the same cache behaviour on different
data.

The stream is a property of the inputs: :func:`describe` counts distinct
statements and the share of (engine, statement) pairs that repeat an
earlier pair, and :func:`check_repeat_share` refuses a stream outside
the band the workload was designed for — independent of what the cache
under test then does with it.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ZIPF_EXPONENT = 1.1
#: ranks 2, 6, 10, ... of the statement space are bound to the row-store
#: session and the rest to the column store: a quarter of the statements
#: and 24.8 % of the Zipf mass, the same for every seed
RS_EVERY = 4
#: distinct texts in the statement space
SPACE_SIZE = 2048
#: accepted share of (engine, statement) pairs that repeat an earlier one
REPEAT_BAND = (0.55, 0.70)
#: rank i of the space is shaped after this order's entry i mod 13: the
#: four flights interleaved, so neighbouring ranks differ in cost
TEMPLATE_ORDER = ("Q1.1", "Q2.1", "Q3.1", "Q4.1", "Q1.2", "Q2.2", "Q3.2",
                  "Q4.2", "Q1.3", "Q2.3", "Q3.3", "Q4.3", "Q3.4")
#: the rank sequences are drawn from this seed plus the client's index
RANK_SEED = 2008


@dataclass(frozen=True)
class Request:
    engine: str      #: "cs" or "rs"
    template: str    #: SSB query name the text was shaped after
    sql: str


class ZipfDomain:
    """A finite domain sampled by Zipf rank: over a seeded permutation of
    ``values`` when ``shuffle`` is given, else in the order they come."""

    def __init__(self, values: Sequence,
                 shuffle: Optional[random.Random] = None) -> None:
        self.values = list(values)
        if not self.values:
            raise ValueError("empty parameter domain")
        if shuffle is not None:
            shuffle.shuffle(self.values)
        weights = [1.0 / rank ** ZIPF_EXPONENT
                   for rank in range(1, len(self.values) + 1)]
        self._cumulative = list(itertools.accumulate(weights))

    def draw(self, rng: random.Random):
        point = rng.random() * self._cumulative[-1]
        return self.values[bisect_left(self._cumulative, point)]


def _windows(low: int, high: int, max_width: int) -> List[Tuple[int, int]]:
    """Every inclusive window inside [low, high] up to ``max_width``
    wide: the wide ones contain the narrow ones."""
    return [(a, b) for a in range(low, high + 1)
            for b in range(a, min(high, a + max_width - 1) + 1)]


def _distinct(table, column: str) -> List:
    col = table.column(column)
    values = sorted(set(col.data.tolist()))
    if col.dictionary is not None:
        return [col.dictionary.value(code) for code in values]
    return values


def _children(table, parent: str, child: str) -> Dict[str, List[str]]:
    """child values grouped under their parent value, from the rows."""
    parents = table.column(parent)
    children = table.column(child)
    pairs = sorted(set(zip(parents.data.tolist(), children.data.tolist())))
    out: Dict[str, List[str]] = {}
    for p_code, c_code in pairs:
        out.setdefault(parents.dictionary.value(p_code), []).append(
            children.dictionary.value(c_code))
    return out


class StatementSpace:
    """The 13 templates bound to one generated database's domains."""

    def __init__(self, data, seed: int) -> None:
        rng = random.Random(seed)
        date, part = data.date, data.part
        customer, supplier = data.customer, data.supplier
        years = _distinct(date, "year")

        def domain(values) -> ZipfDomain:
            return ZipfDomain(values, rng)

        self.year = domain(years)
        self.yearmonthnum = domain(_distinct(date, "yearmonthnum"))
        self.yearmonth = domain(_distinct(date, "yearmonth"))
        self.week = domain(_distinct(date, "weeknuminyear"))
        self.year_span = domain(
            [(a, b) for a, b in _windows(years[0], years[-1], len(years))
             if b > a])
        self.year_pair = domain(list(zip(years, years[1:])))
        self.discount = domain(_windows(0, 10, 3))
        self.quantity_below = domain(range(10, 41, 5))
        self.quantity = domain(
            [(a, b) for a, b in _windows(1, 50, 15)
             if a % 5 == 1 and b % 5 == 0])
        # a region/nation/city is only asked for on a side that has it
        self.c_region = domain(_distinct(customer, "region"))
        self.s_region = domain(_distinct(supplier, "region"))
        self.c_nation = domain(_distinct(customer, "nation"))
        self.s_nation = domain(_distinct(supplier, "nation"))
        shared = _children(customer, "nation", "city")
        supplier_cities = set(_distinct(supplier, "city"))
        self.city_pair = domain(
            [pair for cities in shared.values()
             for pair in itertools.combinations(
                 [c for c in cities if c in supplier_cities], 2)])
        mfgrs = _distinct(part, "mfgr")
        self.mfgr_pair = domain(list(itertools.combinations(mfgrs, 2)))
        self.category = domain(_distinct(part, "category"))
        self.brand = domain(_distinct(part, "brand1"))
        self.brand_span = domain(
            [(brands[a], brands[b])
             for brands in _children(part, "category", "brand1").values()
             for a, b in _windows(0, len(brands) - 1, 8)
             if b - a + 1 in (2, 4, 8)])
        self.templates: Dict[str, Callable[[random.Random], str]] = {
            "Q1.1": self._q1_1, "Q1.2": self._q1_2, "Q1.3": self._q1_3,
            "Q2.1": self._q2_1, "Q2.2": self._q2_2, "Q2.3": self._q2_3,
            "Q3.1": self._q3_1, "Q3.2": self._q3_2, "Q3.3": self._q3_3,
            "Q3.4": self._q3_4, "Q4.1": self._q4_1, "Q4.2": self._q4_2,
            "Q4.3": self._q4_3,
        }
        self.statements = ZipfDomain(self._ranked_statements(rng))

    def _ranked_statements(self, rng: random.Random) -> List[Request]:
        """``SPACE_SIZE`` distinct texts, the templates taking turns; a
        template whose few constants are used up passes its turn."""
        seen: Dict[str, Request] = {}
        for template in itertools.cycle(TEMPLATE_ORDER):
            if len(seen) == SPACE_SIZE:
                return list(seen.values())
            for _attempt in range(64):
                sql = self.templates[template](rng)
                if sql not in seen:
                    engine = "rs" if len(seen) % RS_EVERY == 1 else "cs"
                    seen[sql] = Request(engine, template, sql)
                    break

    # ------------------------------------------------------------------ #
    # the 13 shapes (same clauses as repro.ssb.sql_text.SQL_TEXT)
    # ------------------------------------------------------------------ #
    _FLIGHT1 = ("SELECT sum(lo.extendedprice * lo.discount) AS revenue "
                "FROM lineorder AS lo, date AS d "
                "WHERE lo.orderdate = d.datekey AND {where};")
    _FLIGHT2 = ("SELECT sum(lo.revenue) AS revenue, d.year, p.brand1 "
                "FROM lineorder AS lo, date AS d, part AS p, supplier AS s "
                "WHERE lo.orderdate = d.datekey AND lo.partkey = p.partkey "
                "AND lo.suppkey = s.suppkey AND {where} "
                "GROUP BY d.year, p.brand1 ORDER BY year, brand1;")
    _FLIGHT3 = ("SELECT c.{geo}, s.{geo}, d.year, sum(lo.revenue) AS revenue "
                "FROM customer AS c, lineorder AS lo, supplier AS s, "
                "date AS d WHERE lo.custkey = c.custkey "
                "AND lo.suppkey = s.suppkey AND lo.orderdate = d.datekey "
                "AND {where} GROUP BY c.{geo}, s.{geo}, d.year "
                "ORDER BY year ASC, revenue DESC;")
    _FLIGHT4 = ("SELECT {select}, sum(lo.revenue - lo.supplycost) AS profit "
                "FROM date AS d, customer AS c, supplier AS s, part AS p, "
                "lineorder AS lo WHERE lo.custkey = c.custkey "
                "AND lo.suppkey = s.suppkey AND lo.partkey = p.partkey "
                "AND lo.orderdate = d.datekey AND {where} "
                "GROUP BY {select} ORDER BY {order};")

    def _q1_1(self, rng) -> str:
        lo, hi = self.discount.draw(rng)
        return self._FLIGHT1.format(where=(
            f"d.year = {self.year.draw(rng)} "
            f"AND lo.discount BETWEEN {lo} AND {hi} "
            f"AND lo.quantity < {self.quantity_below.draw(rng)}"))

    def _q1_2(self, rng) -> str:
        lo, hi = self.discount.draw(rng)
        qlo, qhi = self.quantity.draw(rng)
        return self._FLIGHT1.format(where=(
            f"d.yearmonthnum = {self.yearmonthnum.draw(rng)} "
            f"AND lo.discount BETWEEN {lo} AND {hi} "
            f"AND lo.quantity BETWEEN {qlo} AND {qhi}"))

    def _q1_3(self, rng) -> str:
        lo, hi = self.discount.draw(rng)
        qlo, qhi = self.quantity.draw(rng)
        return self._FLIGHT1.format(where=(
            f"d.weeknuminyear = {self.week.draw(rng)} "
            f"AND d.year = {self.year.draw(rng)} "
            f"AND lo.discount BETWEEN {lo} AND {hi} "
            f"AND lo.quantity BETWEEN {qlo} AND {qhi}"))

    def _q2_1(self, rng) -> str:
        return self._FLIGHT2.format(where=(
            f"p.category = '{self.category.draw(rng)}' "
            f"AND s.region = '{self.s_region.draw(rng)}'"))

    def _q2_2(self, rng) -> str:
        first, last = self.brand_span.draw(rng)
        return self._FLIGHT2.format(where=(
            f"p.brand1 BETWEEN '{first}' AND '{last}' "
            f"AND s.region = '{self.s_region.draw(rng)}'"))

    def _q2_3(self, rng) -> str:
        return self._FLIGHT2.format(where=(
            f"p.brand1 = '{self.brand.draw(rng)}' "
            f"AND s.region = '{self.s_region.draw(rng)}'"))

    def _q3_1(self, rng) -> str:
        first, last = self.year_span.draw(rng)
        return self._FLIGHT3.format(geo="nation", where=(
            f"c.region = '{self.c_region.draw(rng)}' "
            f"AND s.region = '{self.s_region.draw(rng)}' "
            f"AND d.year BETWEEN {first} AND {last}"))

    def _q3_2(self, rng) -> str:
        first, last = self.year_span.draw(rng)
        return self._FLIGHT3.format(geo="city", where=(
            f"c.nation = '{self.c_nation.draw(rng)}' "
            f"AND s.nation = '{self.s_nation.draw(rng)}' "
            f"AND d.year BETWEEN {first} AND {last}"))

    def _q3_3(self, rng) -> str:
        a, b = self.city_pair.draw(rng)
        first, last = self.year_span.draw(rng)
        return self._FLIGHT3.format(geo="city", where=(
            f"c.city IN ('{a}', '{b}') AND s.city IN ('{a}', '{b}') "
            f"AND d.year BETWEEN {first} AND {last}"))

    def _q3_4(self, rng) -> str:
        a, b = self.city_pair.draw(rng)
        return self._FLIGHT3.format(geo="city", where=(
            f"c.city IN ('{a}', '{b}') AND s.city IN ('{a}', '{b}') "
            f"AND d.yearmonth = '{self.yearmonth.draw(rng)}'"))

    def _q4_1(self, rng) -> str:
        m1, m2 = self.mfgr_pair.draw(rng)
        return self._FLIGHT4.format(
            select="d.year, c.nation", order="year, nation", where=(
                f"c.region = '{self.c_region.draw(rng)}' "
                f"AND s.region = '{self.s_region.draw(rng)}' "
                f"AND p.mfgr IN ('{m1}', '{m2}')"))

    def _q4_2(self, rng) -> str:
        m1, m2 = self.mfgr_pair.draw(rng)
        y1, y2 = self.year_pair.draw(rng)
        return self._FLIGHT4.format(
            select="d.year, s.nation, p.category",
            order="year, nation, category", where=(
                f"c.region = '{self.c_region.draw(rng)}' "
                f"AND s.region = '{self.s_region.draw(rng)}' "
                f"AND d.year IN ({y1}, {y2}) "
                f"AND p.mfgr IN ('{m1}', '{m2}')"))

    def _q4_3(self, rng) -> str:
        y1, y2 = self.year_pair.draw(rng)
        return self._FLIGHT4.format(
            select="d.year, s.city, p.brand1",
            order="year, city, brand1", where=(
                f"c.region = '{self.c_region.draw(rng)}' "
                f"AND s.nation = '{self.s_nation.draw(rng)}' "
                f"AND d.year IN ({y1}, {y2}) "
                f"AND p.category = '{self.category.draw(rng)}'"))

    # ------------------------------------------------------------------ #
    def stream(self, length: int, client: int) -> List[Request]:
        """``length`` requests for one client: its fixed rank sequence
        over this seed's statements."""
        rng = random.Random(RANK_SEED + client)
        return [self.statements.draw(rng) for _ in range(length)]


def describe(stream: Sequence[Request]) -> Dict[str, float]:
    """Input properties of one client's stream."""
    pairs = [(r.engine, r.sql) for r in stream]
    return {
        "requests": len(pairs),
        "distinct_statements": len({sql for _engine, sql in pairs}),
        "repeat_share": 1.0 - len(set(pairs)) / len(pairs),
    }


def check_repeat_share(summary: Dict[str, float]) -> None:
    """Refuse a stream the serving workload was not designed for."""
    low, high = REPEAT_BAND
    if not low <= summary["repeat_share"] <= high:
        raise ValueError(
            f"stream repeat share {summary['repeat_share']:.3f} is outside "
            f"the designed band {low:.2f}-{high:.2f}: the median request "
            f"would not be a cache hit with an engine miss at the 95th "
            f"percentile")


__all__ = ["Request", "StatementSpace", "describe", "check_repeat_share",
           "REPEAT_BAND", "RS_EVERY", "SPACE_SIZE", "ZIPF_EXPONENT",
           "TEMPLATE_ORDER"]
