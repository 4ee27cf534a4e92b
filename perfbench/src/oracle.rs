//! Expected answers, computed once per catalog from the host references.
//!
//! Every result the benchmark receives — decoded hand-built plan outputs
//! and typed SQL rows alike — is brought to one canonical form: one string
//! per row, cells joined by `|`, dates as `yyyy-mm-dd`. Queries whose SQL
//! text orders rows by dictionary code (Q1, Q4, Q12) are compared as sorted
//! row sets, the same rule the SQL equivalence suite applies.

use adamant::prelude::*;
use adamant::storage::datatype::format_date;
use adamant::tpch::queries as q;
use adamant::tpch::reference as r;

/// Canonical rows of one result.
pub type Rows = Vec<String>;

/// Expected rows per query, indexed like [`TpchQuery::ALL`].
pub struct Oracle {
    rows: Vec<Rows>,
}

fn index(query: TpchQuery) -> usize {
    TpchQuery::ALL
        .iter()
        .position(|&x| x == query)
        .expect("every query is in TpchQuery::ALL")
}

fn unordered(query: TpchQuery) -> bool {
    matches!(query, TpchQuery::Q1 | TpchQuery::Q4 | TpchQuery::Q12)
}

fn canonical(query: TpchQuery, mut rows: Rows) -> Rows {
    if unordered(query) {
        rows.sort();
    }
    rows
}

fn q1_rows(rows: Vec<r::Q1Row>) -> Rows {
    rows.into_iter()
        .map(|x| {
            format!(
                "{}|{}|{}|{}|{}|{}|{}|{}",
                x.returnflag,
                x.linestatus,
                x.sum_qty,
                x.sum_base_price,
                x.sum_disc_price,
                x.sum_charge,
                x.sum_disc,
                x.count
            )
        })
        .collect()
}

fn q3_rows(rows: Vec<r::Q3Row>) -> Rows {
    rows.into_iter()
        .map(|x| {
            let date = format_date(x.orderdate as i32);
            format!("{}|{}|{date}|{}", x.orderkey, x.revenue, x.shippriority)
        })
        .collect()
}

fn q4_rows(rows: Vec<r::Q4Row>) -> Rows {
    rows.into_iter()
        .map(|x| format!("{}|{}", x.priority, x.count))
        .collect()
}

fn q10_rows(rows: Vec<r::Q10Row>) -> Rows {
    rows.into_iter()
        .map(|x| format!("{}|{}", x.custkey, x.revenue))
        .collect()
}

fn q12_rows(rows: Vec<r::Q12Row>) -> Rows {
    rows.into_iter()
        .map(|x| format!("{}|{}|{}", x.shipmode, x.high_line_count, x.low_line_count))
        .collect()
}

impl Oracle {
    /// Runs the host references over `catalog`.
    pub fn new(catalog: &Catalog) -> Self {
        let rows = TpchQuery::ALL
            .iter()
            .map(|&query| {
                let rows = match query {
                    TpchQuery::Q1 => q1_rows(r::q1(catalog).expect("reference Q1")),
                    TpchQuery::Q3 => q3_rows(r::q3(catalog).expect("reference Q3")),
                    TpchQuery::Q4 => q4_rows(r::q4(catalog).expect("reference Q4")),
                    TpchQuery::Q6 => vec![r::q6(catalog).expect("reference Q6").to_string()],
                    TpchQuery::Q10 => q10_rows(r::q10(catalog).expect("reference Q10")),
                    TpchQuery::Q12 => q12_rows(r::q12(catalog).expect("reference Q12")),
                    TpchQuery::Q14 => {
                        let (promo, total) = r::q14(catalog).expect("reference Q14");
                        vec![format!("{promo}|{total}")]
                    }
                };
                canonical(query, rows)
            })
            .collect();
        Oracle { rows }
    }

    /// Whether a hand-built plan's output decodes to the expected rows.
    pub fn check_plan(&self, query: TpchQuery, catalog: &Catalog, out: &QueryOutput) -> bool {
        let rows = match query {
            TpchQuery::Q1 => match q::q1::decode(catalog, out) {
                Ok(rows) => q1_rows(rows),
                Err(_) => return false,
            },
            TpchQuery::Q3 => q3_rows(q::q3::decode(out)),
            TpchQuery::Q4 => match q::q4::decode(catalog, out) {
                Ok(rows) => q4_rows(rows),
                Err(_) => return false,
            },
            TpchQuery::Q6 => vec![q::q6::decode(out).to_string()],
            TpchQuery::Q10 => q10_rows(q::q10::decode(out)),
            TpchQuery::Q12 => match q::q12::decode(catalog, out) {
                Ok(rows) => q12_rows(rows),
                Err(_) => return false,
            },
            TpchQuery::Q14 => {
                let (promo, total) = q::q14::decode(out);
                vec![format!("{promo}|{total}")]
            }
        };
        canonical(query, rows) == self.rows[index(query)]
    }

    /// Whether typed SQL rows equal the expected rows.
    pub fn check_sql(&self, query: TpchQuery, rows: &[Vec<SqlValue>]) -> bool {
        let rows = rows
            .iter()
            .map(|row| {
                row.iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join("|")
            })
            .collect();
        canonical(query, rows) == self.rows[index(query)]
    }
}
