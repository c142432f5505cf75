package tpch

import (
	"fmt"

	"wimpi/internal/colstore"
	"wimpi/internal/plan"
	"wimpi/internal/sql"
)

// SQL returns the SQL text for TPC-H query n (1..22) with the
// specification's validation parameters. The texts follow the frontend's
// conventions: the first FROM item is the probe spine, GROUP BY names
// output aliases, and a scalar subquery's threshold arithmetic is written
// in one association order, so its float bits are fixed.
func SQL(n int) (string, error) { return SQLP(n, DefaultParams()) }

// SQLP returns the SQL text for query n with the given substitution
// parameters. Only the eight representative queries are parameterized;
// the rest use their validation values regardless.
func SQLP(n int, p Params) (string, error) {
	if n < 1 || n > len(sqlBuilders) {
		return "", fmt.Errorf("tpch: no query %d", n)
	}
	return sqlBuilders[n-1](p), nil
}

// MustSQL is SQL for known-valid numbers.
func MustSQL(n int) string {
	s, err := SQL(n)
	if err != nil {
		panic(err)
	}
	return s
}

// Statements returns the SQL texts of queries qs keyed by query number:
// the statement set a cluster coordinator ships (cluster.Coordinator.LoadSQL).
func Statements(qs []int) (map[int]string, error) {
	out := make(map[int]string, len(qs))
	for _, q := range qs {
		s, err := SQL(q)
		if err != nil {
			return nil, err
		}
		out[q] = s
	}
	return out, nil
}

// Query plans TPC-H query n (1..22) against cat: its SQL text with the
// validation parameters, through the optimizer with the TPC-H unique
// keys — the plan the benchmark and the serve tier run. Each call plans
// afresh against the catalog's current statistics.
func Query(cat plan.Catalog, n int) (plan.Node, error) { return QueryP(cat, n, DefaultParams()) }

// QueryP is Query with the given substitution parameters.
func QueryP(cat plan.Catalog, n int, p Params) (plan.Node, error) {
	text, err := SQLP(n, p)
	if err != nil {
		return nil, err
	}
	pl, err := sql.Plan(cat, text, sql.Options{UniqueKeys: TableKeys()})
	if err != nil {
		return nil, fmt.Errorf("tpch: Q%d: %w", n, err)
	}
	return pl.Node, nil
}

// MustQuery is Query for known-valid numbers.
func MustQuery(cat plan.Catalog, n int) plan.Node {
	q, err := Query(cat, n)
	if err != nil {
		panic(err)
	}
	return q
}

// QueryNumbers lists all implemented queries.
func QueryNumbers() []int {
	out := make([]int, len(sqlBuilders))
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// RepresentativeQueries is the eight-query subset used by the paper's
// distributed (Table III) and execution-strategy (Figure 4) experiments,
// covering the main TPC-H chokepoints.
var RepresentativeQueries = []int{1, 3, 4, 5, 6, 13, 14, 19}

// TableKeys declares the base tables' unique keys for the planner
// (sql.Options.UniqueKeys). Lineitem has none.
func TableKeys() map[string][]string {
	return map[string][]string{
		"region":   {"r_regionkey"},
		"nation":   {"n_nationkey"},
		"supplier": {"s_suppkey"},
		"customer": {"c_custkey"},
		"part":     {"p_partkey"},
		"partsupp": {"ps_partkey", "ps_suppkey"},
		"orders":   {"o_orderkey"},
	}
}

var sqlBuilders = [22]func(Params) string{
	sql1, sql2, sql3, sql4, sql5, sql6, sql7, sql8, sql9, sql10, sql11,
	sql12, sql13, sql14, sql15, sql16, sql17, sql18, sql19, sql20, sql21, sql22,
}

// ds renders an int32 date as a SQL date literal body.
func ds(d int32) string { return colstore.FormatDate(d) }

func date(s string) int32 { return colstore.MustDate(s) }

// q6DiscountBand returns the spec's DISCOUNT-0.01 .. DISCOUNT+0.01 band
// with a half-cent guard so exact-hundredth discounts compare robustly.
func q6DiscountBand(p Params) (lo, hi float64) {
	return p.Q6Discount - 0.01 - 0.005, p.Q6Discount + 0.01 + 0.005
}

func sql1(p Params) string {
	return fmt.Sprintf(`
select l_returnflag, l_linestatus,
  sum(l_quantity) as sum_qty,
  sum(l_extendedprice) as sum_base_price,
  sum(l_extendedprice * (1 - l_discount)) as sum_disc_price,
  sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) as sum_charge,
  avg(l_quantity) as avg_qty,
  avg(l_extendedprice) as avg_price,
  avg(l_discount) as avg_disc,
  count(*) as count_order
from lineitem
where l_shipdate <= date '1998-12-01' - interval '%d' day
group by l_returnflag, l_linestatus
order by l_returnflag, l_linestatus`, p.Q1Delta)
}

func sql2(Params) string {
	return `
with offers as (
  select ps_partkey, ps_supplycost, s_acctbal, s_name, s_address, s_phone,
         s_comment, n_name, p_partkey, p_mfgr
  from partsupp, supplier, nation, part
  where s_suppkey = ps_suppkey
    and n_nationkey = s_nationkey
    and n_regionkey in (select r_regionkey from region where r_name = 'EUROPE')
    and p_partkey = ps_partkey
    and p_size = 15
    and p_type like '%BRASS'
),
mincost as (
  select ps_partkey as mc_partkey, min(ps_supplycost) as min_cost
  from offers
  group by mc_partkey
)
select s_acctbal, s_name, n_name, p_partkey, p_mfgr, s_address, s_phone, s_comment
from offers, mincost
where mc_partkey = ps_partkey
  and ps_supplycost = min_cost
order by s_acctbal desc, n_name, s_name, p_partkey
limit 100`
}

func sql3(p Params) string {
	return fmt.Sprintf(`
select l_orderkey, o_orderdate, o_shippriority,
  sum(l_extendedprice * (1 - l_discount)) as revenue
from lineitem, orders
where o_orderkey = l_orderkey
  and o_custkey in (select c_custkey from customer where c_mktsegment = '%s')
  and o_orderdate < date '%s'
  and l_shipdate > date '%s'
group by l_orderkey, o_orderdate, o_shippriority
order by revenue desc, o_orderdate
limit 10`, p.Q3Segment, ds(p.Q3Date), ds(p.Q3Date))
}

func sql4(p Params) string {
	return fmt.Sprintf(`
select o_orderpriority, count(*) as order_count
from orders
where o_orderdate >= date '%s'
  and o_orderdate < date '%s' + interval '3' month
  and o_orderkey in (select l_orderkey from lineitem
                     where l_commitdate < l_receiptdate)
group by o_orderpriority
order by o_orderpriority`, ds(p.Q4Date), ds(p.Q4Date))
}

func sql5(p Params) string {
	return fmt.Sprintf(`
select n_name, sum(l_extendedprice * (1 - l_discount)) as revenue
from lineitem, orders, customer, supplier, nation
where l_orderkey = o_orderkey
  and o_custkey = c_custkey
  and l_suppkey = s_suppkey
  and c_nationkey = n_nationkey
  and s_nationkey = c_nationkey
  and n_regionkey in (select r_regionkey from region where r_name = '%s')
  and o_orderdate >= date '%s'
  and o_orderdate < date '%s' + interval '1' year
group by n_name
order by revenue desc`, p.Q5Region, ds(p.Q5Date), ds(p.Q5Date))
}

func sql6(p Params) string {
	lo, hi := q6DiscountBand(p)
	return fmt.Sprintf(`
select sum(l_extendedprice * l_discount) as revenue
from lineitem
where l_shipdate >= date '%s'
  and l_shipdate < date '%s' + interval '1' year
  and l_discount between %v and %v
  and l_quantity < %v`, ds(p.Q6Date), ds(p.Q6Date), lo, hi, p.Q6Quantity)
}

func sql7(Params) string {
	return `
select supp_nation, cust_nation, year(l_shipdate) as l_year,
  sum(l_extendedprice * (1 - l_discount)) as revenue
from orders,
  (select l_orderkey, l_extendedprice, l_discount, l_shipdate,
          n_name as supp_nation
   from lineitem, supplier, nation
   where s_suppkey = l_suppkey
     and n_nationkey = s_nationkey
     and n_name in ('FRANCE', 'GERMANY')
     and l_shipdate >= date '1995-01-01'
     and l_shipdate < date '1997-01-01') as lines,
  (select c_custkey, n_name as cust_nation
   from customer, nation
   where n_nationkey = c_nationkey
     and n_name in ('FRANCE', 'GERMANY')) as custs
where l_orderkey = o_orderkey
  and c_custkey = o_custkey
  and ((supp_nation = 'FRANCE' and cust_nation = 'GERMANY')
    or (supp_nation = 'GERMANY' and cust_nation = 'FRANCE'))
group by supp_nation, cust_nation, l_year
order by supp_nation, cust_nation, l_year`
}

func sql8(Params) string {
	return `
select year(o_orderdate) as o_year,
  sum(case when supp_nation = 'BRAZIL'
           then l_extendedprice * (1 - l_discount) else 0 end)
    / sum(l_extendedprice * (1 - l_discount)) as mkt_share
from orders,
  (select l_orderkey, l_suppkey, l_extendedprice, l_discount
   from lineitem, part
   where p_partkey = l_partkey
     and p_type = 'ECONOMY ANODIZED STEEL') as plines,
  (select s_suppkey, n_name as supp_nation
   from supplier, nation
   where n_nationkey = s_nationkey) as snation
where l_orderkey = o_orderkey
  and o_custkey in (select c_custkey from customer
                    where c_nationkey in (select n_nationkey from nation
                        where n_regionkey in (select r_regionkey from region
                            where r_name = 'AMERICA')))
  and s_suppkey = l_suppkey
  and o_orderdate >= date '1995-01-01'
  and o_orderdate < date '1997-01-01'
group by o_year
order by o_year`
}

func sql9(Params) string {
	return `
select n_name as nation, year(o_orderdate) as o_year,
  sum(l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity) as sum_profit
from orders,
  (select l_orderkey, l_quantity, l_extendedprice, l_discount,
          ps_supplycost, n_name
   from lineitem, part, partsupp, supplier, nation
   where p_partkey = l_partkey
     and p_name like '%green%'
     and ps_partkey = l_partkey
     and ps_suppkey = l_suppkey
     and s_suppkey = l_suppkey
     and n_nationkey = s_nationkey) as pl
where l_orderkey = o_orderkey
group by nation, o_year
order by nation, o_year desc`
}

func sql10(Params) string {
	return `
select c_custkey, c_name, revenue, c_acctbal, n_name, c_address, c_phone, c_comment
from customer,
  (select o_custkey, sum(l_extendedprice * (1 - l_discount)) as revenue
   from lineitem, orders
   where o_orderkey = l_orderkey
     and o_orderdate >= date '1993-10-01'
     and o_orderdate < date '1993-10-01' + interval '3' month
     and l_returnflag = 'R'
   group by o_custkey) as percust,
  nation
where o_custkey = c_custkey
  and n_nationkey = c_nationkey
order by revenue desc
limit 20`
}

func sql11(Params) string {
	return `
with germanps as (
  select ps_partkey, ps_availqty, ps_supplycost
  from partsupp
  where ps_suppkey in (select s_suppkey from supplier
      where s_nationkey in (select n_nationkey from nation
          where n_name = 'GERMANY'))
)
select ps_partkey, sum(ps_supplycost * ps_availqty) as value
from germanps
group by ps_partkey
having value > (select sum(ps_supplycost * ps_availqty) as t from germanps) * 0.0001
    / ((select count(*) as n from supplier) / 10000)
order by value desc`
}

func sql12(Params) string {
	return `
select l_shipmode,
  sum(case when o_orderpriority in ('1-URGENT', '2-HIGH') then 1 else 0 end)
    as high_line_count,
  sum(case when o_orderpriority in ('1-URGENT', '2-HIGH') then 0 else 1 end)
    as low_line_count
from lineitem, orders
where o_orderkey = l_orderkey
  and l_shipmode in ('MAIL', 'SHIP')
  and l_receiptdate >= date '1994-01-01'
  and l_receiptdate < date '1994-01-01' + interval '1' year
  and l_commitdate < l_receiptdate
  and l_shipdate < l_commitdate
group by l_shipmode
order by l_shipmode`
}

func sql13(p Params) string {
	return fmt.Sprintf(`
select c_count, count(*) as custdist
from (select c_custkey, count(o_orderkey) as c_count
      from customer left join orders
        on o_custkey = c_custkey
       and o_comment not like '%%%s%%%s%%'
      group by c_custkey) as counts
group by c_count
order by custdist desc, c_count desc`, p.Q13Word1, p.Q13Word2)
}

func sql14(p Params) string {
	return fmt.Sprintf(`
select 100 * sum(case when p_type like 'PROMO%%'
                      then l_extendedprice * (1 - l_discount) else 0 end)
     / sum(l_extendedprice * (1 - l_discount)) as promo_revenue
from lineitem, part
where p_partkey = l_partkey
  and l_shipdate >= date '%s'
  and l_shipdate < date '%s' + interval '1' month`, ds(p.Q14Date), ds(p.Q14Date))
}

func sql15(Params) string {
	return `
with revenue0 as (
  select l_suppkey, sum(l_extendedprice * (1 - l_discount)) as total_revenue
  from lineitem
  where l_shipdate >= date '1996-01-01'
    and l_shipdate < date '1996-01-01' + interval '3' month
  group by l_suppkey
)
select s_suppkey, s_name, s_address, s_phone, total_revenue
from supplier, revenue0
where l_suppkey = s_suppkey
  and total_revenue >= (select max(total_revenue) as m from revenue0)
order by s_suppkey`
}

func sql16(Params) string {
	return `
select p_brand, p_type, p_size, count(*) as supplier_cnt
from (select p_brand, p_type, p_size, ps_suppkey, count(*) as n
      from partsupp, part
      where p_partkey = ps_partkey
        and p_brand <> 'Brand#45'
        and p_type not like 'MEDIUM POLISHED%'
        and p_size in (49, 14, 23, 45, 19, 3, 36, 9)
        and ps_suppkey not in (select s_suppkey from supplier
            where s_comment like '%Customer%Complaints%')
      group by p_brand, p_type, p_size, ps_suppkey) as dedup
group by p_brand, p_type, p_size
order by supplier_cnt desc, p_brand, p_type, p_size`
}

func sql17(Params) string {
	return `
with lines as (
  select l_partkey, l_quantity, l_extendedprice
  from lineitem, part
  where p_partkey = l_partkey
    and p_brand = 'Brand#23'
    and p_container = 'MED BOX'
),
avgq as (
  select l_partkey as aq_partkey, avg(l_quantity) as avg_qty
  from lines
  group by aq_partkey
)
select sum(l_extendedprice) / 7 as avg_yearly
from lines, avgq
where aq_partkey = l_partkey
  and l_quantity < 0.2 * avg_qty`
}

func sql18(Params) string {
	return `
select c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice, sum_qty
from orders,
  (select l_orderkey, sum(l_quantity) as sum_qty
   from lineitem
   group by l_orderkey
   having sum_qty > 300) as big,
  customer
where l_orderkey = o_orderkey
  and c_custkey = o_custkey
order by o_totalprice desc, o_orderdate
limit 100`
}

func sql19(p Params) string {
	return fmt.Sprintf(`
select sum(l_extendedprice * (1 - l_discount)) as revenue
from lineitem, part
where p_partkey = l_partkey
  and l_shipmode in ('AIR', 'AIR REG')
  and l_shipinstruct = 'DELIVER IN PERSON'
  and ((p_brand = '%s'
        and p_container in ('SM CASE', 'SM BOX', 'SM PACK', 'SM PKG')
        and l_quantity between %v and %v
        and p_size between 1 and 5)
    or (p_brand = '%s'
        and p_container in ('MED BAG', 'MED BOX', 'MED PKG', 'MED PACK')
        and l_quantity between %v and %v
        and p_size between 1 and 10)
    or (p_brand = '%s'
        and p_container in ('LG CASE', 'LG BOX', 'LG PACK', 'LG PKG')
        and l_quantity between %v and %v
        and p_size between 1 and 15))`,
		p.Q19Brand1, p.Q19Quantity1, p.Q19Quantity1+10,
		p.Q19Brand2, p.Q19Quantity2, p.Q19Quantity2+10,
		p.Q19Brand3, p.Q19Quantity3, p.Q19Quantity3+10)
}

func sql20(Params) string {
	return `
with shipped as (
  select l_partkey, l_suppkey, sum(l_quantity) as sum_qty
  from lineitem
  where l_shipdate >= date '1994-01-01'
    and l_shipdate < date '1994-01-01' + interval '1' year
  group by l_partkey, l_suppkey
)
select s_name, s_address
from supplier
where s_nationkey in (select n_nationkey from nation where n_name = 'CANADA')
  and s_suppkey in (select ps_suppkey
                    from partsupp, shipped
                    where ps_partkey in (select p_partkey from part
                        where p_name like 'forest%')
                      and l_partkey = ps_partkey
                      and l_suppkey = ps_suppkey
                      and ps_availqty + 0 > 0.5 * sum_qty)
order by s_name`
}

func sql21(Params) string {
	return `
with allsupp as (
  select l_orderkey as all_orderkey, count(*) as nsupp
  from (select l_orderkey, l_suppkey, count(*) as n
        from lineitem
        group by l_orderkey, l_suppkey) as pairs
  group by all_orderkey
),
late as (
  select l_orderkey as late_orderkey, count(*) as nlate
  from (select l_orderkey, l_suppkey, count(*) as n
        from lineitem
        where l_receiptdate > l_commitdate
        group by l_orderkey, l_suppkey) as latepairs
  group by late_orderkey
)
select s_name, count(*) as numwait
from lineitem, supplier, allsupp, late
where l_receiptdate > l_commitdate
  and s_suppkey = l_suppkey
  and s_nationkey in (select n_nationkey from nation
      where n_name = 'SAUDI ARABIA')
  and l_orderkey in (select o_orderkey from orders
      where o_orderstatus = 'F')
  and all_orderkey = l_orderkey
  and late_orderkey = l_orderkey
  and nsupp > 1
  and nlate = 1
group by s_name
order by numwait desc, s_name
limit 100`
}

func sql22(Params) string {
	return `
select cntrycode, count(*) as numcust, sum(c_acctbal) as totacctbal
from (select substring(c_phone, 1, 2) as cntrycode, c_acctbal
      from customer
      where (c_phone like '13%' or c_phone like '31%' or c_phone like '23%'
          or c_phone like '29%' or c_phone like '30%' or c_phone like '18%'
          or c_phone like '17%')
        and c_acctbal > (select avg(c_acctbal) as a from customer
            where (c_phone like '13%' or c_phone like '31%' or c_phone like '23%'
                or c_phone like '29%' or c_phone like '30%' or c_phone like '18%'
                or c_phone like '17%')
              and c_acctbal > 0)
        and c_custkey not in (select o_custkey from orders)) as candidates
group by cntrycode
order by cntrycode`
}
