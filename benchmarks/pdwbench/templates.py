"""Seeded, literal-drawing query templates for pdwbench.

Every template owns a small fixed **domain** of literal tuples whose size
divides :data:`ROUNDS`.  A template's literal sequence is a seeded
permutation of that domain, cycled; so any ``ROUNDS`` consecutive draws
cover each domain member equally often, whatever the seed.  The seed
decides the *order* of the SQL a workload sends, never the multiset of
the counted prefix -- that keeps per-template cost, and the exact-count
metrics, stable from seed to seed while the program still only ever sees
SQL text.

The 15 TPC-H templates follow ``repro.workloads.tpch_queries``; literals
that occupy two positions of one query (Q3's date) always move together
and no drawn value collides with another literal of the same query, so
the service's plan cache can re-bind every draw (``bind_params`` never
reports an ambiguous substitution).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

#: Draws per template in a workload's counted prefix; every domain size
#: divides it.
ROUNDS = 6


@dataclass(frozen=True)
class Template:
    name: str
    domain: Tuple[tuple, ...]
    render: Callable[..., str]

    def literals(self, seed: int, client: int = 0,
                 clients: int = 1) -> Iterator[str]:
        """This template's SQL sequence for one client: the seeded
        domain permutation, cycled, dealt round-robin to ``clients``."""
        rng = random.Random(f"pdwbench:{seed}:{self.name}")
        position = 0
        while True:
            order = list(self.domain)
            rng.shuffle(order)
            for params in order:
                if position % clients == client:
                    yield self.render(*params)
                position += 1


def _product(*axes: Sequence) -> Tuple[tuple, ...]:
    domain = tuple(itertools.product(*axes))
    if ROUNDS % len(domain):
        raise ValueError(f"domain of {len(domain)} does not divide {ROUNDS}")
    return domain


_YEARS = (1993, 1995, 1997)


def _q1(year, month):
    return f"""
SELECT l_returnflag, l_linestatus,
       SUM(l_quantity) AS sum_qty,
       SUM(l_extendedprice) AS sum_base_price,
       SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
       SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
       AVG(l_quantity) AS avg_qty,
       AVG(l_extendedprice) AS avg_price,
       AVG(l_discount) AS avg_disc,
       COUNT(*) AS count_order
FROM lineitem
WHERE l_shipdate <= DATE '{year}-{month:02d}-02'
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus
"""


def _q3(segment, year_month):
    date = f"{year_month[0]}-{year_month[1]:02d}-15"
    return f"""
SELECT l_orderkey,
       SUM(l_extendedprice * (1 - l_discount)) AS revenue,
       o_orderdate, o_shippriority
FROM customer, orders, lineitem
WHERE c_mktsegment = '{segment}'
  AND c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND o_orderdate < DATE '{date}'
  AND l_shipdate > DATE '{date}'
GROUP BY l_orderkey, o_orderdate, o_shippriority
ORDER BY revenue DESC, o_orderdate
LIMIT 10
"""


def _quarter(year, quarter):
    start = f"{year}-{3 * quarter - 2:02d}-01"
    end = (f"{year + 1}-01-01" if quarter == 4
           else f"{year}-{3 * quarter + 1:02d}-01")
    return start, end


def _q4(year, quarter):
    start, end = _quarter(year, quarter)
    return f"""
SELECT o_orderpriority, COUNT(*) AS order_count
FROM orders
WHERE o_orderdate >= DATE '{start}'
  AND o_orderdate < DATE '{end}'
  AND EXISTS (
      SELECT 1 FROM lineitem
      WHERE l_orderkey = o_orderkey AND l_commitdate < l_receiptdate
  )
GROUP BY o_orderpriority
ORDER BY o_orderpriority
"""


def _q5(region, year):
    return f"""
SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey
  AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey
  AND n_regionkey = r_regionkey
  AND r_name = '{region}'
  AND o_orderdate >= DATE '{year}-01-01'
  AND o_orderdate < DATE '{year + 1}-01-01'
GROUP BY n_name
ORDER BY revenue DESC
"""


def _q6(year, low_quantity):
    low, quantity = low_quantity
    return f"""
SELECT SUM(l_extendedprice * l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= DATE '{year}-01-01'
  AND l_shipdate < DATE '{year + 1}-01-01'
  AND l_discount BETWEEN {low:.2f} AND {low + 0.02:.2f}
  AND l_quantity < {quantity}
"""


def _q10(year, quarter):
    start, end = _quarter(year, quarter)
    return f"""
SELECT c_custkey, c_name,
       SUM(l_extendedprice * (1 - l_discount)) AS revenue,
       c_acctbal, n_name, c_address, c_phone
FROM customer, orders, lineitem, nation
WHERE c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND o_orderdate >= DATE '{start}'
  AND o_orderdate < DATE '{end}'
  AND l_returnflag = 'R'
  AND c_nationkey = n_nationkey
GROUP BY c_custkey, c_name, c_acctbal, c_phone, n_name, c_address
ORDER BY revenue DESC
LIMIT 20
"""


def _q12(modes, year):
    return f"""
SELECT l_shipmode,
       SUM(CASE WHEN o_orderpriority = '1-URGENT'
                  OR o_orderpriority = '2-HIGH'
                THEN 1 ELSE 0 END) AS high_line_count,
       SUM(CASE WHEN o_orderpriority <> '1-URGENT'
                 AND o_orderpriority <> '2-HIGH'
                THEN 1 ELSE 0 END) AS low_line_count
FROM orders, lineitem
WHERE o_orderkey = l_orderkey
  AND l_shipmode IN ('{modes[0]}', '{modes[1]}')
  AND l_commitdate < l_receiptdate
  AND l_shipdate < l_commitdate
  AND l_receiptdate >= DATE '{year}-01-01'
  AND l_receiptdate < DATE '{year + 1}-01-01'
GROUP BY l_shipmode
ORDER BY l_shipmode
"""


def _q13():
    return """
SELECT c_count, COUNT(*) AS custdist
FROM (
    SELECT c_custkey AS the_custkey, COUNT(o_orderkey) AS c_count
    FROM customer LEFT OUTER JOIN orders ON c_custkey = o_custkey
    GROUP BY c_custkey
) AS c_orders
GROUP BY c_count
ORDER BY custdist DESC, c_count DESC
"""


def _q14(year, month):
    end = f"{year + 1}-01-01" if month == 12 else f"{year}-{month + 1:02d}-01"
    return f"""
SELECT 100.00 * SUM(CASE WHEN p_type LIKE 'PROMO%'
                         THEN l_extendedprice * (1 - l_discount)
                         ELSE 0 END)
       / SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue
FROM lineitem, part
WHERE l_partkey = p_partkey
  AND l_shipdate >= DATE '{year}-{month:02d}-01'
  AND l_shipdate < DATE '{end}'
"""


def _q16(brand, sizes):
    return f"""
SELECT p_brand, p_type, p_size,
       COUNT(DISTINCT ps_suppkey) AS supplier_cnt
FROM partsupp, part
WHERE p_partkey = ps_partkey
  AND p_brand <> '{brand}'
  AND p_type NOT LIKE 'MEDIUM ANODIZED%'
  AND p_size IN ({', '.join(map(str, sizes))})
  AND ps_suppkey NOT IN (
      SELECT s_suppkey FROM supplier WHERE s_acctbal < 0
  )
GROUP BY p_brand, p_type, p_size
ORDER BY supplier_cnt DESC, p_brand, p_type, p_size
LIMIT 40
"""


def _q17(brand, container):
    return f"""
SELECT SUM(l_extendedprice) / 7.0 AS avg_yearly
FROM lineitem, part
WHERE p_partkey = l_partkey
  AND p_brand = '{brand}'
  AND p_container = '{container}'
  AND l_quantity < (
      SELECT 0.2 * AVG(l_quantity) FROM lineitem
      WHERE l_partkey = p_partkey
  )
"""


def _q18(quantity):
    return f"""
SELECT c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice,
       SUM(l_quantity) AS total_qty
FROM customer, orders, lineitem
WHERE o_orderkey IN (
      SELECT l_orderkey FROM lineitem
      GROUP BY l_orderkey
      HAVING SUM(l_quantity) > {quantity}
  )
  AND c_custkey = o_custkey
  AND o_orderkey = l_orderkey
GROUP BY c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice
ORDER BY o_totalprice DESC, o_orderdate
LIMIT 100
"""


def _q19(brands, modes):
    return f"""
SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue
FROM lineitem, part
WHERE p_partkey = l_partkey
  AND l_shipinstruct = 'DELIVER IN PERSON'
  AND l_shipmode IN ('{modes[0]}', '{modes[1]}')
  AND (
        (p_brand = '{brands[0]}' AND p_container IN ('SM CASE', 'SM BOX')
         AND l_quantity >= 1 AND l_quantity <= 11 AND p_size BETWEEN 1 AND 5)
     OR (p_brand = '{brands[1]}' AND p_container IN ('MED BAG', 'MED BOX')
         AND l_quantity >= 10 AND l_quantity <= 20 AND p_size BETWEEN 1 AND 10)
     OR (p_brand = '{brands[2]}' AND p_container IN ('LG CASE', 'LG BOX')
         AND l_quantity >= 20 AND l_quantity <= 30 AND p_size BETWEEN 1 AND 15)
  )
"""


def _q20(word, nation):
    return f"""
SELECT s_name, s_address
FROM supplier, nation
WHERE s_suppkey IN (
      SELECT ps_suppkey FROM partsupp
      WHERE ps_partkey IN (
            SELECT p_partkey FROM part WHERE p_name LIKE '{word}%'
        )
        AND ps_availqty > (
            SELECT 0.5 * SUM(l_quantity) FROM lineitem
            WHERE l_partkey = ps_partkey
              AND l_suppkey = ps_suppkey
              AND l_shipdate >= DATE '1994-01-01'
              AND l_shipdate < DATEADD(year, 1, DATE '1994-01-01')
        )
  )
  AND s_nationkey = n_nationkey
  AND n_name = '{nation}'
ORDER BY s_name
"""


def _q22(codes):
    quoted = ", ".join(f"'{code}'" for code in codes)
    return f"""
SELECT cntrycode, COUNT(*) AS numcust, SUM(acctbal) AS totacctbal
FROM (
    SELECT SUBSTRING(c_phone, 1, 2) AS cntrycode, c_acctbal AS acctbal,
           c_custkey AS k
    FROM customer
    WHERE SUBSTRING(c_phone, 1, 2) IN ({quoted})
      AND c_acctbal > (
          SELECT AVG(c_acctbal) FROM customer WHERE c_acctbal > 0.00
      )
) AS custsale
WHERE k NOT IN (SELECT o_custkey FROM orders)
GROUP BY cntrycode
ORDER BY cntrycode
"""


def _join(price):
    # orders JOIN customer on custkey: the paper's section 2.4 example,
    # as in repro.service.traffic.
    return f"""
SELECT c_custkey, o_orderdate
FROM orders, customer
WHERE o_custkey = c_custkey
  AND o_totalprice > {price}
"""


def _grp(year):
    return f"""
SELECT o_custkey, COUNT(*) AS order_count, SUM(o_totalprice) AS total
FROM orders
WHERE o_orderdate >= DATE '{year}-01-01'
GROUP BY o_custkey
"""


def _dist(quantity):
    return f"""
SELECT DISTINCT l_suppkey, l_partkey
FROM lineitem
WHERE l_quantity < {quantity}
"""


_TEMPLATES = (
    Template("Q1", _product(_YEARS, (3, 9)), _q1),
    Template("Q3", _product(("BUILDING", "MACHINERY", "HOUSEHOLD"),
                            ((1995, 3), (1994, 9))), _q3),
    Template("Q4", _product((1993, 1996), (1, 3, 4)), _q4),
    Template("Q5", _product(("ASIA", "EUROPE", "AMERICA"), (1994, 1996)),
             _q5),
    Template("Q6", _product(_YEARS, ((0.02, 30), (0.05, 24))), _q6),
    Template("Q10", _product((1993, 1996), (1, 3, 4)), _q10),
    Template("Q12", _product((("MAIL", "SHIP"), ("AIR", "TRUCK"),
                              ("RAIL", "FOB")), (1994, 1996)), _q12),
    Template("Q13", _product(), _q13),
    Template("Q14", _product((1994, 1996), (2, 9, 12)), _q14),
    Template("Q16", _product(
        ("Brand#45", "Brand#21", "Brand#33"),
        ((49, 14, 23, 45, 19, 3, 36, 9), (7, 12, 28, 31, 40, 44, 2, 50)),
    ), _q16),
    Template("Q17", _product(("Brand#23", "Brand#41", "Brand#15"),
                             ("MED BOX", "LG CASE")), _q17),
    Template("Q18", _product((170, 190, 212)), _q18),
    Template("Q19", _product(
        (("Brand#12", "Brand#23", "Brand#34"),
         ("Brand#41", "Brand#15", "Brand#52"),
         ("Brand#33", "Brand#54", "Brand#21")),
        (("AIR", "REG AIR"), ("MAIL", "SHIP")),
    ), _q19),
    Template("Q20", _product(("forest", "green", "navy"),
                             ("CANADA", "FRANCE")), _q20),
    Template("Q22", _product((
        ("13", "31", "23", "29", "30"), ("10", "14", "18", "22", "26"),
        ("11", "15", "19", "27", "34"),
    )), _q22),
    Template("JOIN", _product((100, 1000, 25000, 50000, 100000, 200000)),
             _join),
    Template("GRP", _product(_YEARS), _grp),
    Template("DIST", _product((5, 10, 15, 20, 30, 40)), _dist),
)

TEMPLATES: Dict[str, Template] = {t.name: t for t in _TEMPLATES}

TPCH = tuple(t.name for t in _TEMPLATES[:15])
SCAN = ("Q1", "Q6", "Q12", "Q14", "Q4", "Q3")
SHUFFLE = ("Q13", "Q16", "Q19", "Q22", "JOIN", "GRP", "DIST")

#: Columns the never-seen shapes project from (orders, filtered on price).
_NOVEL_COLUMNS = ("o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice",
                  "o_orderdate", "o_orderpriority", "o_clerk",
                  "o_shippriority")


def novel_shapes(seed: int, client: int, tag: str = "") -> Iterator[str]:
    """Never-repeating query shapes for one client: every non-empty
    projection subset of the orders columns, in seeded order.  The first
    column's alias carries the client id, the pass's ``tag`` and a lap
    counter, so no two clients -- and no two passes over one service --
    ever meet on one plan-cache key."""
    rng = random.Random(f"pdwbench:{seed}:novel:{client}")
    subsets: List[Tuple[str, ...]] = [
        combo for size in range(1, len(_NOVEL_COLUMNS) + 1)
        for combo in itertools.combinations(_NOVEL_COLUMNS, size)]
    for lap in itertools.count():
        rng.shuffle(subsets)
        for columns in subsets:
            head = f"{columns[0]} AS c{client}{tag}_lap{lap}"
            yield (f"SELECT {', '.join((head,) + columns[1:])} "
                   f"FROM orders WHERE o_totalprice > "
                   f"{rng.choice((300000, 350000, 400000))}")
