//! Name resolution and typing: AST → [`BoundQuery`].
//!
//! The binder resolves tables and columns against the catalog, translates
//! string literals into dictionary codes or day numbers, turns CASE
//! expressions into 0/1 indicator arithmetic, and classifies the select
//! layer as plain projection or aggregation. Because the executor binds
//! scan inputs by *bare* column name, the binder requires column names to
//! be globally unique across all joined tables — ambiguous schemas get a
//! typed `Unsupported` error instead of silently wrong bindings.

use crate::ast::*;
use crate::error::{Span, SqlError, SqlResult};
use crate::logical::*;
use crate::parser::parse_date;
use adamant_plan::expr::{Expr, Predicate};
use adamant_storage::catalog::Catalog;
use adamant_storage::datatype::DataType;
use adamant_storage::table::Table;
use adamant_task::params::{AggFunc, CmpOp, MapOp};
use std::collections::{BTreeMap, BTreeSet};

/// Sentinel compared against dictionary codes (always ≥ 0) to express
/// predicates that can never (or always) hold, e.g. `col = 'NO SUCH VALUE'`.
const NEVER_CODE: i64 = -1;

/// Binds a parsed statement against the catalog.
pub fn bind(stmt: &SelectStmt, catalog: &Catalog) -> SqlResult<BoundQuery> {
    let mut names = vec![(stmt.from.name.clone(), stmt.from.span)];
    for j in &stmt.joins {
        names.push((j.table.name.clone(), j.table.span));
    }
    let binder = Binder::new(catalog, &names)?;
    binder.bind_stmt(stmt)
}

struct Binder<'a> {
    catalog: &'a Catalog,
    tables: Vec<&'a Table>,
    col_table: BTreeMap<String, usize>,
}

impl<'a> Binder<'a> {
    fn new(catalog: &'a Catalog, names: &[(String, Span)]) -> SqlResult<Binder<'a>> {
        let mut tables = Vec::new();
        let mut col_table = BTreeMap::new();
        for (i, (name, span)) in names.iter().enumerate() {
            if tables.iter().any(|t: &&Table| t.name() == name.as_str()) {
                return Err(SqlError::unsupported(
                    format!("table `{name}` appears twice; self-joins are not supported"),
                    *span,
                ));
            }
            let table = catalog
                .table(name)
                .map_err(|_| SqlError::bind(format!("unknown table `{name}`"), *span))?;
            for field in table.schema().fields() {
                if col_table.insert(field.name.clone(), i).is_some() {
                    return Err(SqlError::unsupported(
                        format!(
                            "column `{}` exists in more than one joined table; \
                             column names must be globally unique",
                            field.name
                        ),
                        *span,
                    ));
                }
            }
            tables.push(table);
        }
        Ok(Binder {
            catalog,
            tables,
            col_table,
        })
    }

    /// Resolves a column reference to its owning table index.
    fn resolve(&self, table: &Option<String>, name: &str, span: Span) -> SqlResult<usize> {
        let &idx = self
            .col_table
            .get(name)
            .ok_or_else(|| SqlError::bind(format!("unknown column `{name}`"), span))?;
        if let Some(q) = table {
            if self.tables[idx].name() != q {
                return Err(SqlError::bind(
                    format!(
                        "column `{name}` belongs to table `{}`, not `{q}`",
                        self.tables[idx].name()
                    ),
                    span,
                ));
            }
        }
        if self.col_type(name) == DataType::Float64 {
            return Err(SqlError::unsupported(
                format!("column `{name}` is Float64; the engine computes in integers"),
                span,
            ));
        }
        Ok(idx)
    }

    fn col_type(&self, name: &str) -> DataType {
        let idx = self.col_table[name];
        self.tables[idx]
            .column(name)
            .map(|c| c.data_type())
            .unwrap_or(DataType::Int64)
    }

    fn col_data(&self, name: &str) -> &'a adamant_storage::column::Column {
        let idx = self.col_table[name];
        self.tables[idx].column(name).expect("resolved column")
    }

    fn decode_for(&self, name: &str) -> ColumnDecode {
        match self.col_type(name) {
            DataType::DictStr => ColumnDecode::Dict {
                table: self.tables[self.col_table[name]].name().to_string(),
                column: name.to_string(),
            },
            DataType::Date => ColumnDecode::Date,
            _ => ColumnDecode::Int,
        }
    }

    // ---- statement ------------------------------------------------------

    fn bind_stmt(&self, stmt: &SelectStmt) -> SqlResult<BoundQuery> {
        let tables: Vec<BoundTable> = self
            .tables
            .iter()
            .map(|t| BoundTable {
                name: t.name().to_string(),
                rows: t.row_count(),
            })
            .collect();

        // Join links: each ON must connect the new table to the accumulated
        // prefix with a non-dictionary equi-key.
        let mut joins = Vec::new();
        for (i, j) in stmt.joins.iter().enumerate() {
            let (lt, ln) = self.resolve_ref(&j.left)?;
            let (rt, rn) = self.resolve_ref(&j.right)?;
            let new_idx = i + 1;
            let (stream_key, table_key) = if lt < new_idx && rt == new_idx {
                (ln, rn)
            } else if rt < new_idx && lt == new_idx {
                (rn, ln)
            } else {
                return Err(SqlError::bind(
                    "join condition must link the joined table to a preceding one",
                    j.span,
                ));
            };
            for key in [&stream_key, &table_key] {
                if self.col_type(key) == DataType::DictStr {
                    return Err(SqlError::unsupported(
                        format!("cannot join on dictionary column `{key}`"),
                        j.span,
                    ));
                }
            }
            joins.push(BoundJoin {
                stream_key,
                table_key,
            });
        }

        // WHERE: split into top-level conjuncts; EXISTS is pulled out into a
        // semi-join, everything else becomes a Predicate.
        let mut conjuncts = Vec::new();
        let mut exists = None;
        if let Some(filter) = &stmt.filter {
            for c in split_conjuncts(filter) {
                if let BoolExpr::Exists { query, span } = c {
                    if exists.is_some() {
                        return Err(SqlError::unsupported(
                            "at most one EXISTS conjunct is supported",
                            *span,
                        ));
                    }
                    if self.tables.len() > 1 {
                        return Err(SqlError::unsupported(
                            "EXISTS is only supported on single-table outer queries",
                            *span,
                        ));
                    }
                    exists = Some(self.bind_exists(query, *span)?);
                } else {
                    conjuncts.push(self.bind_predicate(c)?);
                }
            }
        }

        let select = self.bind_select(stmt)?;
        let order_by = self.bind_order(stmt, &select)?;

        let scan_cols: Vec<BTreeSet<String>> = self
            .tables
            .iter()
            .map(|t| t.schema().fields().iter().map(|f| f.name.clone()).collect())
            .collect();

        Ok(BoundQuery {
            scan_preds: vec![Vec::new(); tables.len()],
            scan_cols,
            tables,
            joins,
            exists,
            conjuncts,
            select,
            order_by,
            limit: stmt.limit,
            col_table: self.col_table.clone(),
            span: stmt.span,
        })
    }

    fn resolve_ref(&self, e: &ScalarExpr) -> SqlResult<(usize, String)> {
        match e {
            ScalarExpr::Column { table, name, span } => {
                let idx = self.resolve(table, name, *span)?;
                Ok((idx, name.clone()))
            }
            other => Err(SqlError::bind("expected a column reference", other.span())),
        }
    }

    // ---- EXISTS ---------------------------------------------------------

    fn bind_exists(&self, sub: &SelectStmt, span: Span) -> SqlResult<BoundExists> {
        if !sub.joins.is_empty()
            || !sub.group_by.is_empty()
            || !sub.order_by.is_empty()
            || sub.limit.is_some()
        {
            return Err(SqlError::unsupported(
                "EXISTS subqueries must be a plain single-table SELECT with a WHERE",
                span,
            ));
        }
        let inner = self.catalog.table(&sub.from.name).map_err(|_| {
            SqlError::bind(format!("unknown table `{}`", sub.from.name), sub.from.span)
        })?;
        if self.tables.iter().any(|t| t.name() == inner.name()) {
            return Err(SqlError::unsupported(
                "EXISTS over a table already in the outer FROM is not supported",
                sub.from.span,
            ));
        }
        for f in inner.schema().fields() {
            if self.col_table.contains_key(&f.name) {
                return Err(SqlError::unsupported(
                    format!(
                        "column `{}` exists in both the EXISTS table and the outer query",
                        f.name
                    ),
                    sub.from.span,
                ));
            }
        }
        let inner_binder = Binder::new(self.catalog, &[(sub.from.name.clone(), sub.from.span)])?;
        let filter = sub.filter.as_ref().ok_or_else(|| {
            SqlError::unsupported("EXISTS subquery needs a correlating WHERE", span)
        })?;
        let mut correlation = None;
        let mut inner_conjuncts = Vec::new();
        for c in split_conjuncts(filter) {
            if let Some((outer_key, inner_key)) = self.correlation_of(c, &inner_binder)? {
                if correlation.is_some() {
                    return Err(SqlError::unsupported(
                        "EXISTS supports exactly one correlation equality",
                        c.span(),
                    ));
                }
                correlation = Some((outer_key, inner_key));
            } else {
                inner_conjuncts.push(inner_binder.bind_predicate(c)?);
            }
        }
        let (outer_key, inner_key) = correlation.ok_or_else(|| {
            SqlError::unsupported(
                "EXISTS subquery needs an equality correlating it with the outer query",
                span,
            )
        })?;
        if self.col_type(&outer_key) == DataType::DictStr
            || inner_binder.col_type(&inner_key) == DataType::DictStr
        {
            return Err(SqlError::unsupported(
                "cannot correlate EXISTS on dictionary columns",
                span,
            ));
        }
        Ok(BoundExists {
            table: inner.name().to_string(),
            rows: inner.row_count(),
            outer_key,
            inner_key,
            conjuncts: inner_conjuncts,
        })
    }

    /// If `c` is `inner_col = outer_col` (either side order), returns
    /// `(outer_key, inner_key)`.
    fn correlation_of(
        &self,
        c: &BoolExpr,
        inner: &Binder<'_>,
    ) -> SqlResult<Option<(String, String)>> {
        let BoolExpr::Cmp {
            left,
            op: CmpName::Eq,
            right,
            ..
        } = c
        else {
            return Ok(None);
        };
        let (
            ScalarExpr::Column {
                name: ln,
                table: lq,
                span: ls,
            },
            ScalarExpr::Column {
                name: rn,
                table: rq,
                span: rs,
            },
        ) = (&**left, &**right)
        else {
            return Ok(None);
        };
        let l_inner = inner.col_table.contains_key(ln);
        let r_inner = inner.col_table.contains_key(rn);
        match (l_inner, r_inner) {
            (true, false) if self.col_table.contains_key(rn) => {
                inner.resolve(lq, ln, *ls)?;
                self.resolve(rq, rn, *rs)?;
                Ok(Some((rn.clone(), ln.clone())))
            }
            (false, true) if self.col_table.contains_key(ln) => {
                self.resolve(lq, ln, *ls)?;
                inner.resolve(rq, rn, *rs)?;
                Ok(Some((ln.clone(), rn.clone())))
            }
            _ => Ok(None),
        }
    }

    // ---- predicates -----------------------------------------------------

    fn bind_predicate(&self, b: &BoolExpr) -> SqlResult<Predicate> {
        match b {
            BoolExpr::And(l, r) => Ok(Predicate::and(vec![
                self.bind_predicate(l)?,
                self.bind_predicate(r)?,
            ])),
            BoolExpr::Or(l, r) => Ok(Predicate::or(vec![
                self.bind_predicate(l)?,
                self.bind_predicate(r)?,
            ])),
            BoolExpr::Exists { span, .. } => Err(SqlError::unsupported(
                "EXISTS is only supported as a top-level WHERE conjunct",
                *span,
            )),
            BoolExpr::Cmp {
                left,
                op,
                right,
                span,
            } => self.bind_cmp(left, *op, right, *span),
            BoolExpr::Between { expr, lo, hi, span } => {
                let (_, col) = self.resolve_ref(expr)?;
                if self.col_type(&col) == DataType::DictStr {
                    return Err(SqlError::unsupported(
                        "BETWEEN on dictionary columns is not supported",
                        *span,
                    ));
                }
                let lo = self.literal_for(&col, lo)?.ok_or_else(|| {
                    SqlError::bind("BETWEEN bound does not match the column", *span)
                })?;
                let hi = self.literal_for(&col, hi)?.ok_or_else(|| {
                    SqlError::bind("BETWEEN bound does not match the column", *span)
                })?;
                Ok(Predicate::between(col, lo, hi))
            }
            BoolExpr::InList { expr, list, span } => {
                let (_, col) = self.resolve_ref(expr)?;
                let mut values = Vec::new();
                for item in list {
                    if let Some(v) = self.literal_for(&col, item)? {
                        values.push(v);
                    }
                }
                values.sort_unstable();
                values.dedup();
                if values.is_empty() {
                    return Ok(Predicate::cmp(col, CmpOp::Eq, NEVER_CODE));
                }
                let _ = span;
                Ok(Predicate::in_set(col, &values))
            }
            BoolExpr::Like {
                expr,
                pattern,
                span,
            } => {
                let (_, col) = self.resolve_ref(expr)?;
                let codes = self.like_codes(&col, pattern, *span)?;
                if codes.is_empty() {
                    return Ok(Predicate::cmp(col, CmpOp::Eq, NEVER_CODE));
                }
                Ok(Predicate::in_set(col, &codes))
            }
        }
    }

    fn bind_cmp(
        &self,
        left: &ScalarExpr,
        op: CmpName,
        right: &ScalarExpr,
        span: Span,
    ) -> SqlResult<Predicate> {
        let classify =
            |e: &ScalarExpr| -> Option<()> { matches!(e, ScalarExpr::Column { .. }).then_some(()) };
        match (classify(left), classify(right)) {
            (Some(()), Some(())) => {
                let (_, lc) = self.resolve_ref(left)?;
                let (_, rc) = self.resolve_ref(right)?;
                for c in [&lc, &rc] {
                    if self.col_type(c) == DataType::DictStr {
                        return Err(SqlError::unsupported(
                            "column-to-column comparison on dictionary columns \
                             is not supported",
                            span,
                        ));
                    }
                }
                Ok(Predicate::cmp_cols(lc, cmp_op(op), rc))
            }
            (Some(()), None) => self.bind_col_lit(left, op, right, span),
            (None, Some(())) => self.bind_col_lit(right, flip(op), left, span),
            (None, None) => Err(SqlError::unsupported(
                "predicates must compare a column with a literal or another column",
                span,
            )),
        }
    }

    fn bind_col_lit(
        &self,
        col: &ScalarExpr,
        op: CmpName,
        lit: &ScalarExpr,
        span: Span,
    ) -> SqlResult<Predicate> {
        let (_, name) = self.resolve_ref(col)?;
        if self.col_type(&name) == DataType::DictStr && !matches!(op, CmpName::Eq | CmpName::Ne) {
            return Err(SqlError::unsupported(
                "dictionary columns only support `=`, `<>`, IN and LIKE",
                span,
            ));
        }
        match self.literal_for(&name, lit)? {
            Some(v) => Ok(Predicate::cmp(name, cmp_op(op), v)),
            // A string with no dictionary code: `=` never holds, `<>` always.
            None => Ok(Predicate::cmp(name, cmp_op(op), NEVER_CODE)),
        }
    }

    /// Translates a literal for comparison against `col`: integers pass
    /// through, strings become dictionary codes (None when absent from the
    /// dictionary) or day numbers for date columns.
    fn literal_for(&self, col: &str, lit: &ScalarExpr) -> SqlResult<Option<i64>> {
        match lit {
            ScalarExpr::Int { value, .. } => Ok(Some(*value)),
            ScalarExpr::Str { value, span } => match self.col_type(col) {
                DataType::DictStr => Ok(self.col_data(col).dict_code(value).map(|c| c as i64)),
                DataType::Date => parse_date(value).map(Some).ok_or_else(|| {
                    SqlError::bind(
                        format!("invalid date literal '{value}' for date column `{col}`"),
                        *span,
                    )
                }),
                other => Err(SqlError::bind(
                    format!(
                        "string literal cannot be compared with `{col}` ({})",
                        other.name()
                    ),
                    *span,
                )),
            },
            other => Err(SqlError::unsupported(
                "comparison operands must be a column and a literal",
                other.span(),
            )),
        }
    }

    /// Dictionary codes matching a LIKE prefix pattern.
    fn like_codes(&self, col: &str, pattern: &str, span: Span) -> SqlResult<Vec<i64>> {
        if self.col_type(col) != DataType::DictStr {
            return Err(SqlError::unsupported(
                format!("LIKE requires a dictionary column, `{col}` is not one"),
                span,
            ));
        }
        let prefix = pattern.strip_suffix('%').ok_or_else(|| {
            SqlError::unsupported("only prefix LIKE patterns ('PREFIX%') are supported", span)
        })?;
        if prefix.contains('%') || prefix.contains('_') {
            return Err(SqlError::unsupported(
                "only prefix LIKE patterns ('PREFIX%') are supported",
                span,
            ));
        }
        let dict = self.col_data(col).dictionary().unwrap_or(&[]);
        let mut codes: Vec<i64> = dict
            .iter()
            .enumerate()
            .filter(|(_, s)| s.starts_with(prefix))
            .map(|(i, _)| i as i64)
            .collect();
        codes.sort_unstable();
        Ok(codes)
    }

    // ---- scalar expressions ---------------------------------------------

    /// Binds a scalar expression (no aggregates). Dictionary columns are
    /// only allowed when the whole expression is that bare column and the
    /// caller opted in.
    fn bind_scalar(&self, e: &ScalarExpr, allow_bare_dict: bool) -> SqlResult<Expr> {
        if allow_bare_dict {
            if let ScalarExpr::Column { table, name, span } = e {
                self.resolve(table, name, *span)?;
                return Ok(Expr::col(name.clone()));
            }
        }
        self.bind_scalar_inner(e)
    }

    fn bind_scalar_inner(&self, e: &ScalarExpr) -> SqlResult<Expr> {
        match e {
            ScalarExpr::Column { table, name, span } => {
                self.resolve(table, name, *span)?;
                if self.col_type(name) == DataType::DictStr {
                    return Err(SqlError::unsupported(
                        format!("dictionary column `{name}` cannot be used in arithmetic"),
                        *span,
                    ));
                }
                Ok(Expr::col(name.clone()))
            }
            ScalarExpr::Int { value, .. } => Ok(Expr::lit(*value)),
            ScalarExpr::Str { span, .. } => Err(SqlError::unsupported(
                "string literals are only supported in comparisons",
                *span,
            )),
            ScalarExpr::Binary {
                op, left, right, ..
            } => {
                let l = self.bind_scalar_inner(left)?;
                let r = self.bind_scalar_inner(right)?;
                Ok(match op {
                    BinOp::Add => l.add(r),
                    BinOp::Sub => l.sub(r),
                    BinOp::Mul => l.mul(r),
                    BinOp::Div => l.div(r),
                })
            }
            ScalarExpr::Agg { span, .. } => Err(SqlError::unsupported(
                "aggregate calls cannot be nested inside expressions",
                *span,
            )),
            ScalarExpr::Case {
                when,
                then,
                otherwise,
                ..
            } => {
                let ind = self.cond_indicator(when)?;
                let t = self.bind_scalar_inner(then)?;
                let o = match otherwise {
                    Some(e) => self.bind_scalar_inner(e)?,
                    None => Expr::lit(0),
                };
                Ok(case_arith(ind, t, o))
            }
        }
    }

    /// Lowers a CASE condition to a 0/1 indicator expression (the paper's
    /// conditional-aggregation shape: `sum(case when … then … end)` becomes
    /// arithmetic over `MAP` comparison indicators).
    fn cond_indicator(&self, b: &BoolExpr) -> SqlResult<Expr> {
        match b {
            BoolExpr::And(l, r) => Ok(self.cond_indicator(l)?.mul(self.cond_indicator(r)?)),
            BoolExpr::Or(l, r) => {
                let a = self.cond_indicator(l)?;
                let b = self.cond_indicator(r)?;
                // a OR b = a + b − a·b over 0/1 indicators.
                Ok(a.clone().add(b.clone()).sub(a.mul(b)))
            }
            BoolExpr::Cmp {
                left,
                op,
                right,
                span,
            } => {
                let (col, op, lit) = match (&**left, &**right) {
                    (ScalarExpr::Column { .. }, ScalarExpr::Column { .. }) => {
                        return Err(SqlError::unsupported(
                            "column-to-column comparisons are not supported in CASE",
                            *span,
                        ))
                    }
                    (ScalarExpr::Column { .. }, lit) => (&**left, *op, lit),
                    (lit, ScalarExpr::Column { .. }) => (&**right, flip(*op), lit),
                    _ => {
                        return Err(SqlError::unsupported(
                            "CASE conditions must compare a column with a literal",
                            *span,
                        ))
                    }
                };
                let (_, name) = self.resolve_ref(col)?;
                if self.col_type(&name) == DataType::DictStr
                    && !matches!(op, CmpName::Eq | CmpName::Ne)
                {
                    return Err(SqlError::unsupported(
                        "dictionary columns only support `=`, `<>`, IN and LIKE",
                        *span,
                    ));
                }
                let value = self.literal_for(&name, lit)?.unwrap_or(NEVER_CODE);
                Ok(Expr::Indicator(
                    Box::new(Expr::col(name)),
                    indicator_op(op),
                    value,
                ))
            }
            BoolExpr::Between { expr, lo, hi, span } => {
                let (_, name) = self.resolve_ref(expr)?;
                if self.col_type(&name) == DataType::DictStr {
                    return Err(SqlError::unsupported(
                        "BETWEEN on dictionary columns is not supported",
                        *span,
                    ));
                }
                let lo = self.literal_for(&name, lo)?.ok_or_else(|| {
                    SqlError::bind("BETWEEN bound does not match the column", *span)
                })?;
                let hi = self.literal_for(&name, hi)?.ok_or_else(|| {
                    SqlError::bind("BETWEEN bound does not match the column", *span)
                })?;
                Ok(Expr::col(name.clone()).ge_const(lo).mul(Expr::Indicator(
                    Box::new(Expr::col(name)),
                    MapOp::LeConst,
                    hi,
                )))
            }
            BoolExpr::InList { expr, list, span } => {
                let (_, name) = self.resolve_ref(expr)?;
                let mut values = Vec::new();
                for item in list {
                    if let Some(v) = self.literal_for(&name, item)? {
                        values.push(v);
                    }
                }
                values.sort_unstable();
                values.dedup();
                let _ = span;
                Ok(sum_of_eq(&name, &values))
            }
            BoolExpr::Like {
                expr,
                pattern,
                span,
            } => {
                let (_, name) = self.resolve_ref(expr)?;
                let codes = self.like_codes(&name, pattern, *span)?;
                Ok(sum_of_eq(&name, &codes))
            }
            BoolExpr::Exists { span, .. } => Err(SqlError::unsupported(
                "EXISTS is not supported inside CASE",
                *span,
            )),
        }
    }

    // ---- select layer ---------------------------------------------------

    fn bind_select(&self, stmt: &SelectStmt) -> SqlResult<BoundSelect> {
        let is_aggregate = !stmt.group_by.is_empty() || stmt.items.iter().any(|i| i.expr.has_agg());
        if !is_aggregate {
            if !stmt.order_by.is_empty() {
                return Err(SqlError::unsupported(
                    "ORDER BY is only supported with GROUP BY / aggregates",
                    stmt.order_by[0].span,
                ));
            }
            let mut items = Vec::new();
            for (i, item) in stmt.items.iter().enumerate() {
                let expr = self.bind_scalar(&item.expr, true)?;
                if expr.columns().is_empty() {
                    return Err(SqlError::unsupported(
                        "constant-only projections are not supported",
                        item.span,
                    ));
                }
                let name = out_name(item, i, &expr);
                let decode = match &expr {
                    Expr::Col(c) => self.decode_for(c),
                    _ => ColumnDecode::Int,
                };
                items.push(BoundItem { name, expr, decode });
            }
            check_unique_names(items.iter().map(|i| i.name.as_str()), stmt.span)?;
            return Ok(BoundSelect::Plain(items));
        }

        // Aggregate query: GROUP BY columns plus aggregate calls.
        let mut group = Vec::new();
        for g in &stmt.group_by {
            let (_, name) = self.resolve_ref(g)?;
            if group.iter().any(|bg: &BoundGroup| bg.column == name) {
                return Err(SqlError::bind(
                    format!("duplicate GROUP BY column `{name}`"),
                    g.span(),
                ));
            }
            let (lo, hi) = self.value_range(&name)?;
            group.push(BoundGroup {
                decode: self.decode_for(&name),
                column: name,
                lo,
                hi,
            });
        }
        let mut aggs: Vec<BoundAgg> = Vec::new();
        let mut outputs = Vec::new();
        for item in stmt.items.iter() {
            match &item.expr {
                ScalarExpr::Column { table, name, span } => {
                    self.resolve(table, name, *span)?;
                    let gi = group
                        .iter()
                        .position(|g| &g.column == name)
                        .ok_or_else(|| {
                            SqlError::bind(
                                format!("column `{name}` must appear in GROUP BY"),
                                *span,
                            )
                        })?;
                    outputs.push(BoundOutput {
                        name: item.alias.clone().unwrap_or_else(|| name.clone()),
                        source: OutputSource::Group(gi),
                    });
                }
                ScalarExpr::Agg { func, arg, span } => {
                    let bound_arg = match arg {
                        None => None,
                        Some(a) => {
                            if a.has_agg() {
                                return Err(SqlError::unsupported(
                                    "nested aggregates are not supported",
                                    *span,
                                ));
                            }
                            let e = self.bind_scalar(a, false)?;
                            if e.columns().is_empty() {
                                return Err(SqlError::unsupported(
                                    "aggregates over constants are not supported",
                                    *span,
                                ));
                            }
                            Some(e)
                        }
                    };
                    let name = item
                        .alias
                        .clone()
                        .unwrap_or_else(|| format!("{}_{}", func.as_str(), aggs.len()));
                    outputs.push(BoundOutput {
                        name: name.clone(),
                        source: OutputSource::Agg(aggs.len()),
                    });
                    aggs.push(BoundAgg {
                        name,
                        func: agg_func(*func),
                        arg: bound_arg,
                    });
                }
                other => {
                    return Err(SqlError::unsupported(
                        "select items in aggregate queries must be a group column \
                         or a single aggregate call",
                        other.span(),
                    ))
                }
            }
        }
        check_unique_names(outputs.iter().map(|o| o.name.as_str()), stmt.span)?;
        Ok(BoundSelect::Aggregate {
            group,
            aggs,
            outputs,
        })
    }

    fn bind_order(&self, stmt: &SelectStmt, select: &BoundSelect) -> SqlResult<Vec<BoundOrder>> {
        let BoundSelect::Aggregate {
            group,
            aggs,
            outputs,
        } = select
        else {
            return Ok(Vec::new());
        };
        let mut out = Vec::new();
        for o in &stmt.order_by {
            let source = outputs
                .iter()
                .find(|b| b.name == o.name)
                .map(|b| b.source)
                .or_else(|| {
                    group
                        .iter()
                        .position(|g| g.column == o.name)
                        .map(OutputSource::Group)
                })
                .or_else(|| {
                    aggs.iter()
                        .position(|a| a.name == o.name)
                        .map(OutputSource::Agg)
                })
                .ok_or_else(|| {
                    SqlError::bind(
                        format!(
                            "ORDER BY `{}` does not name an output or group column",
                            o.name
                        ),
                        o.span,
                    )
                })?;
            out.push(BoundOrder {
                source,
                desc: o.desc,
            });
        }
        Ok(out)
    }

    /// Bind-time value range of a grouping column (dictionary span for dict
    /// columns, observed min/max otherwise) — used for key packing and
    /// hash-table sizing.
    fn value_range(&self, name: &str) -> SqlResult<(i64, i64)> {
        let col = self.col_data(name);
        if let Some(dict) = col.dictionary() {
            return Ok((0, dict.len() as i64 - 1));
        }
        let vals = col.i64_values().map_err(|e| {
            SqlError::bind(
                format!("cannot read column `{name}`: {e:?}"),
                Span::default(),
            )
        })?;
        let lo = vals.iter().copied().min().unwrap_or(0);
        let hi = vals.iter().copied().max().unwrap_or(0);
        Ok((lo, hi))
    }
}

/// `CASE` as arithmetic: `I·then + (1 − I)·else`, with the common
/// `THEN 1 ELSE 0` / `THEN 0 ELSE 1` shapes folded to `I` and `1 − I`.
fn case_arith(ind: Expr, then: Expr, otherwise: Expr) -> Expr {
    match (&then, &otherwise) {
        (Expr::Lit(1), Expr::Lit(0)) => ind,
        (Expr::Lit(0), Expr::Lit(1)) => Expr::lit(1).sub(ind),
        (_, Expr::Lit(0)) => ind.mul(then),
        _ => {
            let inv = Expr::lit(1).sub(ind.clone());
            ind.mul(then).add(inv.mul(otherwise))
        }
    }
}

/// `Σ (col == v)` over distinct values — a 0/1 membership indicator.
fn sum_of_eq(col: &str, values: &[i64]) -> Expr {
    let mut it = values.iter();
    let Some(&first) = it.next() else {
        return Expr::col(col).eq_const(NEVER_CODE);
    };
    let mut acc = Expr::col(col).eq_const(first);
    for &v in it {
        acc = acc.add(Expr::col(col).eq_const(v));
    }
    acc
}

fn split_conjuncts(b: &BoolExpr) -> Vec<&BoolExpr> {
    match b {
        BoolExpr::And(l, r) => {
            let mut out = split_conjuncts(l);
            out.extend(split_conjuncts(r));
            out
        }
        other => vec![other],
    }
}

fn check_unique_names<'n>(names: impl Iterator<Item = &'n str>, span: Span) -> SqlResult<()> {
    let mut seen = BTreeSet::new();
    for n in names {
        if !seen.insert(n) {
            return Err(SqlError::bind(
                format!("duplicate output column name `{n}`; use AS to disambiguate"),
                span,
            ));
        }
    }
    Ok(())
}

fn out_name(item: &SelectItem, i: usize, expr: &Expr) -> String {
    if let Some(a) = &item.alias {
        return a.clone();
    }
    match expr {
        Expr::Col(c) => c.clone(),
        _ => format!("col_{i}"),
    }
}

fn cmp_op(op: CmpName) -> CmpOp {
    match op {
        CmpName::Lt => CmpOp::Lt,
        CmpName::Le => CmpOp::Le,
        CmpName::Gt => CmpOp::Gt,
        CmpName::Ge => CmpOp::Ge,
        CmpName::Eq => CmpOp::Eq,
        CmpName::Ne => CmpOp::Ne,
    }
}

fn flip(op: CmpName) -> CmpName {
    match op {
        CmpName::Lt => CmpName::Gt,
        CmpName::Le => CmpName::Ge,
        CmpName::Gt => CmpName::Lt,
        CmpName::Ge => CmpName::Le,
        CmpName::Eq => CmpName::Eq,
        CmpName::Ne => CmpName::Ne,
    }
}

fn indicator_op(op: CmpName) -> MapOp {
    match op {
        CmpName::Lt => MapOp::LtConst,
        CmpName::Le => MapOp::LeConst,
        CmpName::Gt => MapOp::GtConst,
        CmpName::Ge => MapOp::GeConst,
        CmpName::Eq => MapOp::EqConst,
        CmpName::Ne => MapOp::NeConst,
    }
}

fn agg_func(f: AggName) -> AggFunc {
    match f {
        AggName::Sum => AggFunc::Sum,
        AggName::Count => AggFunc::Count,
        AggName::Min => AggFunc::Min,
        AggName::Max => AggFunc::Max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use adamant_storage::column::Column;
    use adamant_storage::table::Table;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            Table::new(
                "items",
                vec![
                    Column::from_i64("i_key", vec![1, 2, 3, 4]),
                    Column::from_i32("i_qty", vec![10, 20, 30, 40]),
                    Column::from_dates("i_date", vec![100, 200, 300, 400]),
                    Column::from_strings("i_flag", &["A", "B", "A", "C"]),
                ],
            )
            .unwrap(),
        );
        c.register(
            Table::new(
                "orders_t",
                vec![
                    Column::from_i64("o_key", vec![1, 2]),
                    Column::from_i32("o_val", vec![7, 9]),
                ],
            )
            .unwrap(),
        );
        c
    }

    fn bind_sql(sql: &str) -> SqlResult<BoundQuery> {
        bind(&parse(sql)?, &catalog())
    }

    #[test]
    fn resolves_plain_projection() {
        let q = bind_sql("SELECT i_key, i_qty * 2 AS dbl FROM items WHERE i_qty > 15").unwrap();
        assert_eq!(q.tables.len(), 1);
        assert_eq!(q.conjuncts.len(), 1);
        match &q.select {
            BoundSelect::Plain(items) => {
                assert_eq!(items[0].name, "i_key");
                assert_eq!(items[1].name, "dbl");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn dict_equality_binds_to_code() {
        let q = bind_sql("SELECT i_key FROM items WHERE i_flag = 'B'").unwrap();
        match &q.conjuncts[0] {
            Predicate::Cmp { value, .. } => assert_eq!(*value, 1), // "B" is code 1
            other => panic!("{other:?}"),
        }
        // Unknown string: never-true code.
        let q = bind_sql("SELECT i_key FROM items WHERE i_flag = 'ZZZ'").unwrap();
        match &q.conjuncts[0] {
            Predicate::Cmp { value, .. } => assert_eq!(*value, NEVER_CODE),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn like_prefix_expands_to_codes() {
        let q = bind_sql("SELECT i_key FROM items WHERE i_flag LIKE 'A%'").unwrap();
        match &q.conjuncts[0] {
            Predicate::Or(ps) => assert_eq!(ps.len(), 1),
            other => panic!("{other:?}"),
        }
        assert!(bind_sql("SELECT i_key FROM items WHERE i_flag LIKE '%A'").is_err());
        assert!(bind_sql("SELECT i_key FROM items WHERE i_qty LIKE 'A%'").is_err());
    }

    #[test]
    fn join_keys_resolve_and_orient() {
        let q = bind_sql("SELECT i_qty FROM items JOIN orders_t ON o_key = i_key WHERE o_val > 0")
            .unwrap();
        assert_eq!(q.joins[0].stream_key, "i_key");
        assert_eq!(q.joins[0].table_key, "o_key");
    }

    #[test]
    fn aggregate_select_layer() {
        let q = bind_sql(
            "SELECT i_flag, SUM(i_qty) AS total, COUNT(*) AS n FROM items \
             GROUP BY i_flag ORDER BY total DESC, i_flag",
        )
        .unwrap();
        match &q.select {
            BoundSelect::Aggregate {
                group,
                aggs,
                outputs,
            } => {
                assert_eq!(group.len(), 1);
                assert_eq!(group[0].lo, 0);
                assert_eq!(group[0].hi, 2);
                assert_eq!(aggs.len(), 2);
                assert!(aggs[1].arg.is_none(), "COUNT(*) has no arg");
                assert_eq!(outputs.len(), 3);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(q.order_by.len(), 2);
        assert!(q.order_by[0].desc);
        assert!(matches!(q.order_by[1].source, OutputSource::Group(0)));
    }

    #[test]
    fn case_binds_to_indicator_arithmetic() {
        let q =
            bind_sql("SELECT SUM(CASE WHEN i_flag = 'A' THEN 1 ELSE 0 END) AS a_count FROM items")
                .unwrap();
        match &q.select {
            BoundSelect::Aggregate { aggs, .. } => {
                assert!(matches!(
                    aggs[0].arg.as_ref().unwrap(),
                    Expr::Indicator(_, MapOp::EqConst, 0)
                ));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bind_errors_are_typed() {
        use crate::error::SqlErrorKind as K;
        for (sql, kind) in [
            ("SELECT x FROM nope", K::Bind),
            ("SELECT nope FROM items", K::Bind),
            ("SELECT i_key FROM items WHERE orders_t.i_key = 1", K::Bind),
            ("SELECT i_key, i_qty AS i_key FROM items", K::Bind),
            ("SELECT i_qty FROM items GROUP BY i_flag", K::Bind),
            ("SELECT SUM(i_qty) AS s FROM items ORDER BY nope", K::Bind),
            ("SELECT i_key FROM items WHERE i_flag < 'B'", K::Unsupported),
            ("SELECT i_flag + 1 AS x FROM items", K::Unsupported),
            (
                "SELECT i_key FROM items JOIN items ON i_key = i_key",
                K::Unsupported,
            ),
            ("SELECT SUM(SUM(i_qty)) AS s FROM items", K::Unsupported),
            ("SELECT i_key FROM items WHERE 1 = 1", K::Unsupported),
            ("SELECT i_key FROM items ORDER BY i_key", K::Unsupported),
        ] {
            let err = bind_sql(sql).unwrap_err();
            assert_eq!(err.kind, kind, "{sql}: {err}");
        }
    }

    #[test]
    fn exists_binds_to_semi_join() {
        let q = bind_sql(
            "SELECT COUNT(*) AS n FROM items \
             WHERE i_qty > 5 AND EXISTS (SELECT o_key FROM orders_t \
                                         WHERE o_key = i_key AND o_val > 8)",
        )
        .unwrap();
        let ex = q.exists.as_ref().unwrap();
        assert_eq!(ex.table, "orders_t");
        assert_eq!(ex.outer_key, "i_key");
        assert_eq!(ex.inner_key, "o_key");
        assert_eq!(ex.conjuncts.len(), 1);
        assert_eq!(q.conjuncts.len(), 1);
    }

    #[test]
    fn date_strings_bind_against_date_columns() {
        let q = bind_sql("SELECT i_key FROM items WHERE i_date < '1970-08-01'").unwrap();
        match &q.conjuncts[0] {
            Predicate::Cmp { value, .. } => assert_eq!(*value, 212),
            other => panic!("{other:?}"),
        }
        assert!(bind_sql("SELECT i_key FROM items WHERE i_date < 'gibberish'").is_err());
    }
}
