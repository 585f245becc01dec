//! Logical query plans.
//!
//! MCDB-R (like the MCDB prototype it extends) has no SQL optimizer; plans
//! are specified directly (paper Appendix D: "we use an MCDB-specific
//! language to specify a query plan directly").  [`PlanNode`] is that plan
//! language: a small tree of relational operators plus the MCDB-specific
//! [`RandomTableSpec`] node which fuses the paper's `Seed` and `Instantiate`
//! operators — it attaches one stream seed per uncertain tuple and
//! materializes a block of stream values, exactly what Fig. 2's
//! `Seed`/`Instantiate` pair does.

use std::fmt;
use std::sync::Arc;

use mcdbr_storage::codec::{put_count, put_str};
use mcdbr_storage::{
    fnv1a, Catalog, DataType, DecodeError, DecodeResult, Field, Reader, Result, Schema, Value,
    FNV_OFFSET,
};
use mcdbr_vg::VgFunction;

use crate::expr::{BinaryOp, Expr};

/// How an output column of an uncertain table is produced.
#[derive(Debug, Clone)]
pub enum OutputColumn {
    /// Copy a column of the parameter-table row (deterministic, e.g. `CID`).
    Param {
        /// Column name in the parameter table.
        source: String,
        /// Name in the uncertain table.
        as_name: String,
    },
    /// A column of the VG function's output (random, e.g. `val`).
    Vg {
        /// Column index within the VG function's output table.
        vg_col: usize,
        /// Name in the uncertain table.
        as_name: String,
    },
}

/// Specification of an uncertain table — the plan-level form of the paper's
///
/// ```sql
/// CREATE TABLE Losses (CID, val) AS
///   FOR EACH CID IN means
///   WITH myVal AS Normal(VALUES(m, 1.0))
///   SELECT CID, myVal.* FROM myVal
/// ```
///
/// For every row of `param_table`, one seed is derived (via
/// [`mcdbr_prng::seed_for`] from the executor's master seed and `table_tag`),
/// the VG function is bound to the parameter expressions evaluated on that
/// row, and one output bundle is produced per row of the VG output table.
#[derive(Debug, Clone)]
pub struct RandomTableSpec {
    /// Name of the uncertain table (for diagnostics).
    pub name: String,
    /// The parameter table scanned by the `FOR EACH` clause.
    pub param_table: String,
    /// The VG function.
    pub vg: Arc<dyn VgFunction>,
    /// Expressions (over the parameter-table row) bound as VG parameters.
    pub vg_params: Vec<Expr>,
    /// Output columns.
    pub columns: Vec<OutputColumn>,
    /// Tag mixed into seed derivation so two uncertain tables scanning the
    /// same parameter table get independent streams.
    pub table_tag: u64,
}

impl RandomTableSpec {
    /// The schema of the uncertain table.
    pub fn schema(&self, catalog: &Catalog) -> Result<Schema> {
        let param_schema = catalog.get(&self.param_table)?.schema().clone();
        let vg_fields = self.vg.output_fields();
        let mut fields = Vec::with_capacity(self.columns.len());
        for col in &self.columns {
            match col {
                OutputColumn::Param { source, as_name } => {
                    let idx = param_schema.index_of(source)?;
                    fields.push(Field::new(
                        as_name.clone(),
                        param_schema.field(idx).data_type,
                    ));
                }
                OutputColumn::Vg { vg_col, as_name } => {
                    let dt = vg_fields
                        .get(*vg_col)
                        .map(|f| f.data_type)
                        .unwrap_or(DataType::Float64);
                    fields.push(Field::new(as_name.clone(), dt));
                }
            }
        }
        Ok(Schema::new(fields))
    }
}

/// Join types supported by the bundle executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// Inner equi-join.
    Inner,
}

/// A logical plan node.
#[derive(Debug, Clone)]
pub enum PlanNode {
    /// Scan a deterministic table from the catalog.
    TableScan {
        /// Table name.
        table: String,
    },
    /// Generate an uncertain table (Seed + Instantiate fused).
    RandomTable(RandomTableSpec),
    /// Filter rows by a predicate.  Predicates over random attributes become
    /// per-repetition `isPres` masks (paper §5); predicates over
    /// deterministic attributes drop bundles outright.
    Filter {
        /// Input plan.
        input: Box<PlanNode>,
        /// The predicate.
        predicate: Expr,
    },
    /// Project / compute expressions.
    Project {
        /// Input plan.
        input: Box<PlanNode>,
        /// `(output name, expression)` pairs.
        exprs: Vec<(String, Expr)>,
    },
    /// Inner equi-join on deterministic attributes.  Joins on *random*
    /// attributes must apply [`PlanNode::Split`] first (paper §8).
    Join {
        /// Left input.
        left: Box<PlanNode>,
        /// Right input.
        right: Box<PlanNode>,
        /// Pairs of `(left column, right column)` equated by the join.
        on: Vec<(String, String)>,
        /// Join type.
        join_type: JoinType,
    },
    /// MCDB's `Split` operation (paper §8): make a random attribute
    /// deterministic by enumerating its possible values and transferring the
    /// nondeterminism into presence information (and, for the Gibbs path,
    /// into a value guard on the originating stream).
    Split {
        /// Input plan.
        input: Box<PlanNode>,
        /// Name of the random column to split on.
        column: String,
    },
}

impl PlanNode {
    /// Scan a deterministic table.
    pub fn scan(table: impl Into<String>) -> PlanNode {
        PlanNode::TableScan {
            table: table.into(),
        }
    }

    /// Generate an uncertain table.
    pub fn random_table(spec: RandomTableSpec) -> PlanNode {
        PlanNode::RandomTable(spec)
    }

    /// Filter this plan's output.
    pub fn filter(self, predicate: Expr) -> PlanNode {
        PlanNode::Filter {
            input: Box::new(self),
            predicate,
        }
    }

    /// Project this plan's output.
    pub fn project(self, exprs: Vec<(impl Into<String>, Expr)>) -> PlanNode {
        PlanNode::Project {
            input: Box::new(self),
            exprs: exprs.into_iter().map(|(n, e)| (n.into(), e)).collect(),
        }
    }

    /// Inner equi-join with another plan.
    pub fn join(
        self,
        right: PlanNode,
        on: Vec<(impl Into<String>, impl Into<String>)>,
    ) -> PlanNode {
        PlanNode::Join {
            left: Box::new(self),
            right: Box::new(right),
            on: on.into_iter().map(|(l, r)| (l.into(), r.into())).collect(),
            join_type: JoinType::Inner,
        }
    }

    /// Split a random column into deterministic alternatives.
    pub fn split(self, column: impl Into<String>) -> PlanNode {
        PlanNode::Split {
            input: Box::new(self),
            column: column.into(),
        }
    }

    /// Compute the output schema of this plan against a catalog.
    pub fn schema(&self, catalog: &Catalog) -> Result<Schema> {
        match self {
            PlanNode::TableScan { table } => Ok(catalog.get(table)?.schema().clone()),
            PlanNode::RandomTable(spec) => spec.schema(catalog),
            PlanNode::Filter { input, .. } => input.schema(catalog),
            PlanNode::Split { input, .. } => input.schema(catalog),
            PlanNode::Project { input, exprs } => {
                let in_schema = input.schema(catalog)?;
                let mut fields = Vec::with_capacity(exprs.len());
                for (name, expr) in exprs {
                    fields.push(Field::new(name.clone(), infer_type(expr, &in_schema)));
                }
                Ok(Schema::new(fields))
            }
            PlanNode::Join { left, right, .. } => {
                Ok(left.schema(catalog)?.join(&right.schema(catalog)?))
            }
        }
    }

    /// A stable fingerprint of this plan, used (together with the catalog
    /// epoch) as the key of [`crate::SessionCache`]: FNV-1a over exactly the
    /// bytes [`PlanNode::encode_wire`] ships the plan as.
    ///
    /// So two plans share a fingerprint exactly when they ship as the same
    /// bytes — operator tree shape, table names, predicates and projections
    /// (including literal *types*, since `1i64` and `1.0f64` arithmetic
    /// differ), join keys, and for uncertain tables the name, the parameter
    /// table, the VG function's [`mcdbr_vg::VgFunction::cache_token`], the
    /// VG parameter expressions, the output-column layout and the
    /// `table_tag` mixed into seed derivation — and a worker or server that
    /// rebuilds a plan from its bytes files it under the sender's key.  The
    /// hash is stable across processes and runs (unlike `std`'s
    /// `DefaultHasher`).
    pub fn fingerprint(&self) -> u64 {
        let mut bytes = Vec::new();
        self.encode_wire(&mut bytes);
        fnv1a(FNV_OFFSET, &bytes)
    }

    /// All uncertain-table specifications reachable from this plan, in
    /// left-to-right order.  Useful for diagnostics and for the query
    /// front-end.
    pub fn random_tables(&self) -> Vec<&RandomTableSpec> {
        let mut out = Vec::new();
        self.collect_random_tables(&mut out);
        out
    }

    fn collect_random_tables<'a>(&'a self, out: &mut Vec<&'a RandomTableSpec>) {
        match self {
            PlanNode::TableScan { .. } => {}
            PlanNode::RandomTable(spec) => out.push(spec),
            PlanNode::Filter { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::Split { input, .. } => input.collect_random_tables(out),
            PlanNode::Join { left, right, .. } => {
                left.collect_random_tables(out);
                right.collect_random_tables(out);
            }
        }
    }
}

/// Crude output-type inference for projections: comparisons and logic are
/// boolean, arithmetic is numeric (Float64 unless both sides are integer
/// columns/literals), column references keep their type.
fn infer_type(expr: &Expr, schema: &Schema) -> DataType {
    use crate::expr::BinaryOp::*;
    match expr {
        Expr::Column(name) => schema
            .index_of(name)
            .map(|i| schema.field(i).data_type)
            .unwrap_or(DataType::Null),
        Expr::Literal(v) => v.data_type(),
        Expr::Not(_) => DataType::Bool,
        Expr::Binary { op, lhs, rhs } => match op {
            Eq | NotEq | Lt | LtEq | Gt | GtEq | And | Or => DataType::Bool,
            Add | Sub | Mul => {
                let lt = infer_type(lhs, schema);
                let rt = infer_type(rhs, schema);
                if lt == DataType::Int64 && rt == DataType::Int64 {
                    DataType::Int64
                } else {
                    DataType::Float64
                }
            }
            Div => DataType::Float64,
        },
    }
}

impl fmt::Display for PlanNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn indent(f: &mut fmt::Formatter<'_>, node: &PlanNode, depth: usize) -> fmt::Result {
            let pad = "  ".repeat(depth);
            match node {
                PlanNode::TableScan { table } => writeln!(f, "{pad}TableScan({table})"),
                PlanNode::RandomTable(spec) => writeln!(
                    f,
                    "{pad}RandomTable({} FOR EACH {} WITH {})",
                    spec.name,
                    spec.param_table,
                    spec.vg.name()
                ),
                PlanNode::Filter { input, predicate } => {
                    writeln!(f, "{pad}Filter({predicate})")?;
                    indent(f, input, depth + 1)
                }
                PlanNode::Project { input, exprs } => {
                    let list: Vec<String> =
                        exprs.iter().map(|(n, e)| format!("{n} := {e}")).collect();
                    writeln!(f, "{pad}Project({})", list.join(", "))?;
                    indent(f, input, depth + 1)
                }
                PlanNode::Join {
                    left, right, on, ..
                } => {
                    let keys: Vec<String> = on.iter().map(|(l, r)| format!("{l} = {r}")).collect();
                    writeln!(f, "{pad}Join({})", keys.join(" AND "))?;
                    indent(f, left, depth + 1)?;
                    indent(f, right, depth + 1)
                }
                PlanNode::Split { input, column } => {
                    writeln!(f, "{pad}Split({column})")?;
                    indent(f, input, depth + 1)
                }
            }
        }
        indent(f, self, 0)
    }
}

// ===== The plan and expression codec =====
//
// One tagged pre-order encoding in the byte format of
// `mcdbr_storage::codec`: what a `Plan` or `Query` frame carries and what
// `PlanNode::fingerprint` hashes.  A VG function travels as its cache
// token and decodes through `mcdbr_vg::from_token`, so only the built-ins
// rebuild; the encoder writes any token, and a sender that must be
// understood checks the tokens first.

/// The binary operators in wire order: operator `i` is byte `i + 1`,
/// which is also its declaration order in [`BinaryOp`].
const BINARY_OPS: [BinaryOp; 12] = [
    BinaryOp::Add,
    BinaryOp::Sub,
    BinaryOp::Mul,
    BinaryOp::Div,
    BinaryOp::Eq,
    BinaryOp::NotEq,
    BinaryOp::Lt,
    BinaryOp::LtEq,
    BinaryOp::Gt,
    BinaryOp::GtEq,
    BinaryOp::And,
    BinaryOp::Or,
];

/// How deep plans and expressions may nest inside one encoding.  Decoding
/// recurses once per level, so the bound keeps hostile bytes from choosing
/// the decoder's stack depth.
const MAX_NESTING: usize = 256;

fn check_nesting(depth: usize) -> DecodeResult<()> {
    if depth > MAX_NESTING {
        return Err(DecodeError::corrupt(
            "plan",
            format!("nested deeper than {MAX_NESTING} levels"),
        ));
    }
    Ok(())
}

impl Expr {
    /// Append this expression's bytes (see [`PlanNode::encode_wire`]).
    pub fn encode_wire(&self, out: &mut Vec<u8>) {
        match self {
            Expr::Column(name) => {
                out.push(1);
                put_str(out, name);
            }
            Expr::Literal(v) => {
                out.push(2);
                v.encode_wire(out);
            }
            Expr::Binary { op, lhs, rhs } => {
                out.push(3);
                out.push(*op as u8 + 1);
                lhs.encode_wire(out);
                rhs.encode_wire(out);
            }
            Expr::Not(inner) => {
                out.push(4);
                inner.encode_wire(out);
            }
        }
    }

    /// Decode one expression written by [`Expr::encode_wire`]: a typed
    /// error on truncated, corrupt or over-nested bytes, never a panic.
    pub fn decode_wire(r: &mut Reader<'_>) -> DecodeResult<Expr> {
        get_expr(r, 0)
    }
}

/// Decode an expression nested `depth` levels inside its encoding.
fn get_expr(r: &mut Reader<'_>, depth: usize) -> DecodeResult<Expr> {
    check_nesting(depth)?;
    Ok(match r.u8("expression tag")? {
        1 => Expr::Column(r.string("column name")?),
        2 => Expr::Literal(Value::decode_wire(r)?),
        3 => {
            let raw = r.u8("binary op")?;
            let op = (BINARY_OPS.get(usize::from(raw).wrapping_sub(1)).copied())
                .ok_or_else(|| DecodeError::unknown("binary op", raw))?;
            Expr::Binary {
                op,
                lhs: Box::new(get_expr(r, depth + 1)?),
                rhs: Box::new(get_expr(r, depth + 1)?),
            }
        }
        4 => Expr::Not(Box::new(get_expr(r, depth + 1)?)),
        other => return Err(DecodeError::unknown("expression tag", other)),
    })
}

impl PlanNode {
    /// Append this plan's bytes: one tag per node in pre-order, strings
    /// and counts length-prefixed, each VG function as its
    /// [`mcdbr_vg::VgFunction::cache_token`].  The encoding is the plan's
    /// identity ([`PlanNode::fingerprint`] hashes it) and what a `Plan` or
    /// `Query` frame ships.
    pub fn encode_wire(&self, out: &mut Vec<u8>) {
        match self {
            PlanNode::TableScan { table } => {
                out.push(1);
                put_str(out, table);
            }
            PlanNode::RandomTable(spec) => {
                out.push(2);
                put_str(out, &spec.name);
                put_str(out, &spec.param_table);
                put_str(out, &spec.vg.cache_token());
                put_count(out, spec.vg_params.len());
                for expr in &spec.vg_params {
                    expr.encode_wire(out);
                }
                put_count(out, spec.columns.len());
                for column in &spec.columns {
                    match column {
                        OutputColumn::Param { source, as_name } => {
                            out.push(1);
                            put_str(out, source);
                            put_str(out, as_name);
                        }
                        OutputColumn::Vg { vg_col, as_name } => {
                            out.push(2);
                            out.extend_from_slice(&(*vg_col as u64).to_le_bytes());
                            put_str(out, as_name);
                        }
                    }
                }
                out.extend_from_slice(&spec.table_tag.to_le_bytes());
            }
            PlanNode::Filter { input, predicate } => {
                out.push(3);
                predicate.encode_wire(out);
                input.encode_wire(out);
            }
            PlanNode::Project { input, exprs } => {
                out.push(4);
                put_count(out, exprs.len());
                for (name, expr) in exprs {
                    put_str(out, name);
                    expr.encode_wire(out);
                }
                input.encode_wire(out);
            }
            PlanNode::Join {
                left,
                right,
                on,
                join_type: JoinType::Inner,
            } => {
                out.extend_from_slice(&[5, 1]);
                put_count(out, on.len());
                for (l, r) in on {
                    put_str(out, l);
                    put_str(out, r);
                }
                left.encode_wire(out);
                right.encode_wire(out);
            }
            PlanNode::Split { input, column } => {
                out.push(6);
                put_str(out, column);
                input.encode_wire(out);
            }
        }
    }

    /// Decode one plan written by [`PlanNode::encode_wire`]: a typed error
    /// on truncated, corrupt or over-nested bytes and on a VG token
    /// [`mcdbr_vg::from_token`] refuses, never a panic.
    pub fn decode_wire(r: &mut Reader<'_>) -> DecodeResult<PlanNode> {
        get_plan(r, 0)
    }
}

/// Decode a plan nested `depth` levels inside its encoding.
fn get_plan(r: &mut Reader<'_>, depth: usize) -> DecodeResult<PlanNode> {
    check_nesting(depth)?;
    Ok(match r.u8("plan tag")? {
        1 => PlanNode::TableScan {
            table: r.string("scan table")?,
        },
        2 => PlanNode::RandomTable(RandomTableSpec {
            name: r.string("random-table name")?,
            param_table: r.string("parameter table")?,
            vg: mcdbr_vg::from_token(r.str("VG token")?)
                .map_err(|e| DecodeError::corrupt("VG token", e.to_string()))?,
            vg_params: r.seq("VG parameter count", 1, |r| get_expr(r, depth + 1))?,
            columns: r.seq("output column count", 9, |r| {
                Ok(match r.u8("output column tag")? {
                    1 => OutputColumn::Param {
                        source: r.string("param source")?,
                        as_name: r.string("param alias")?,
                    },
                    2 => OutputColumn::Vg {
                        vg_col: usize::try_from(r.u64("vg column index")?).map_err(|_| {
                            DecodeError::corrupt("vg column index", "past this platform's usize")
                        })?,
                        as_name: r.string("vg alias")?,
                    },
                    other => return Err(DecodeError::unknown("output column tag", other)),
                })
            })?,
            table_tag: r.u64("table tag")?,
        }),
        3 => {
            let predicate = get_expr(r, depth + 1)?;
            PlanNode::Filter {
                input: Box::new(get_plan(r, depth + 1)?),
                predicate,
            }
        }
        4 => {
            let exprs = r.seq("projection count", 6, |r| {
                Ok((r.string("projection name")?, get_expr(r, depth + 1)?))
            })?;
            PlanNode::Project {
                input: Box::new(get_plan(r, depth + 1)?),
                exprs,
            }
        }
        5 => {
            let join_type = match r.u8("join type")? {
                1 => JoinType::Inner,
                other => return Err(DecodeError::unknown("join type", other)),
            };
            let on = r.seq("join key count", 8, |r| {
                Ok((r.string("left join key")?, r.string("right join key")?))
            })?;
            PlanNode::Join {
                left: Box::new(get_plan(r, depth + 1)?),
                right: Box::new(get_plan(r, depth + 1)?),
                on,
                join_type,
            }
        }
        6 => {
            let column = r.string("split column")?;
            PlanNode::Split {
                input: Box::new(get_plan(r, depth + 1)?),
                column,
            }
        }
        other => return Err(DecodeError::unknown("plan tag", other)),
    })
}

/// Convenience constructor for the common "scalar uncertain attribute"
/// pattern of paper §2: one parameter table, a scalar VG function, keep some
/// parameter columns and attach the VG value under `value_name`.
pub fn scalar_random_table(
    name: impl Into<String>,
    param_table: impl Into<String>,
    vg: Arc<dyn VgFunction>,
    vg_params: Vec<Expr>,
    keep_params: &[&str],
    value_name: impl Into<String>,
    table_tag: u64,
) -> RandomTableSpec {
    let mut columns: Vec<OutputColumn> = keep_params
        .iter()
        .map(|p| OutputColumn::Param {
            source: p.to_string(),
            as_name: p.to_string(),
        })
        .collect();
    columns.push(OutputColumn::Vg {
        vg_col: 0,
        as_name: value_name.into(),
    });
    RandomTableSpec {
        name: name.into(),
        param_table: param_table.into(),
        vg,
        vg_params,
        columns,
        table_tag,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdbr_storage::{Field, Table, TableBuilder, Value};
    use mcdbr_vg::NormalVg;

    fn catalog_with_means() -> Catalog {
        let means = TableBuilder::new(Schema::new(vec![Field::int64("cid"), Field::float64("m")]))
            .row([Value::Int64(1), Value::Float64(3.0)])
            .row([Value::Int64(2), Value::Float64(4.0)])
            .build()
            .unwrap();
        let mut catalog = Catalog::new();
        catalog.register("means", means).unwrap();
        catalog
    }

    fn losses_spec() -> RandomTableSpec {
        scalar_random_table(
            "Losses",
            "means",
            Arc::new(NormalVg),
            vec![Expr::col("m"), Expr::lit(1.0)],
            &["cid"],
            "val",
            1,
        )
    }

    #[test]
    fn random_table_schema() {
        let catalog = catalog_with_means();
        let schema = losses_spec().schema(&catalog).unwrap();
        assert_eq!(schema.names(), vec!["cid", "val"]);
        assert_eq!(schema.field(0).data_type, DataType::Int64);
        assert_eq!(schema.field(1).data_type, DataType::Float64);
    }

    #[test]
    fn plan_schema_propagation() {
        let catalog = catalog_with_means();
        let plan = PlanNode::random_table(losses_spec())
            .filter(Expr::col("cid").lt(Expr::lit(10i64)))
            .project(vec![
                ("loss", Expr::col("val")),
                ("double_loss", Expr::col("val").mul(Expr::lit(2.0))),
            ]);
        let schema = plan.schema(&catalog).unwrap();
        assert_eq!(schema.names(), vec!["loss", "double_loss"]);
        assert_eq!(schema.field(1).data_type, DataType::Float64);
    }

    #[test]
    fn join_schema_renames_duplicates() {
        let mut catalog = catalog_with_means();
        let sup = TableBuilder::new(Schema::new(vec![
            Field::int64("cid"),
            Field::utf8("region"),
        ]))
        .row([Value::Int64(1), Value::str("EU")])
        .build()
        .unwrap();
        catalog.register("sup", sup).unwrap();
        let plan = PlanNode::scan("means").join(PlanNode::scan("sup"), vec![("cid", "cid")]);
        let schema = plan.schema(&catalog).unwrap();
        assert_eq!(schema.names(), vec!["cid", "m", "cid_1", "region"]);
    }

    #[test]
    fn type_inference_for_projection() {
        let catalog = catalog_with_means();
        let plan = PlanNode::scan("means").project(vec![
            ("is_big", Expr::col("m").gt(Expr::lit(3.5))),
            ("cid2", Expr::col("cid").add(Expr::col("cid"))),
            ("ratio", Expr::col("m").div(Expr::lit(2.0))),
        ]);
        let schema = plan.schema(&catalog).unwrap();
        assert_eq!(schema.field(0).data_type, DataType::Bool);
        assert_eq!(schema.field(1).data_type, DataType::Int64);
        assert_eq!(schema.field(2).data_type, DataType::Float64);
    }

    #[test]
    fn random_tables_are_collected() {
        let plan =
            PlanNode::random_table(losses_spec()).filter(Expr::col("cid").lt(Expr::lit(10i64)));
        assert_eq!(plan.random_tables().len(), 1);
        assert_eq!(plan.random_tables()[0].name, "Losses");
        assert!(PlanNode::scan("means").random_tables().is_empty());
    }

    #[test]
    fn split_and_scan_schema_passthrough() {
        let catalog = catalog_with_means();
        let plan = PlanNode::random_table(losses_spec()).split("val");
        assert_eq!(plan.schema(&catalog).unwrap().names(), vec!["cid", "val"]);
        assert!(PlanNode::scan("missing").schema(&catalog).is_err());
    }

    #[test]
    fn display_shows_tree() {
        let plan =
            PlanNode::random_table(losses_spec()).filter(Expr::col("cid").lt(Expr::lit(10i64)));
        let text = plan.to_string();
        assert!(text.contains("Filter"));
        assert!(text.contains("RandomTable(Losses FOR EACH means WITH Normal)"));
    }

    #[test]
    fn fingerprints_are_stable_and_structural() {
        let a = PlanNode::random_table(losses_spec()).filter(Expr::col("cid").lt(Expr::lit(3i64)));
        let b = PlanNode::random_table(losses_spec()).filter(Expr::col("cid").lt(Expr::lit(3i64)));
        assert_eq!(a.fingerprint(), b.fingerprint(), "same structure, same fp");

        // Literal *types* matter (Int64 vs Float64 arithmetic differ).
        let float_lit =
            PlanNode::random_table(losses_spec()).filter(Expr::col("cid").lt(Expr::lit(3.0)));
        assert_ne!(a.fingerprint(), float_lit.fingerprint());

        // Operator structure, table tags, and VG configuration all matter.
        assert_ne!(
            a.fingerprint(),
            PlanNode::random_table(losses_spec()).fingerprint()
        );
        let mut retagged = losses_spec();
        retagged.table_tag = 2;
        assert_ne!(
            PlanNode::random_table(losses_spec()).fingerprint(),
            PlanNode::random_table(retagged).fingerprint()
        );
        let mut multi = losses_spec();
        multi.vg = Arc::new(mcdbr_vg::MultiNormalVg::new(3, 0.5));
        let mut multi2 = losses_spec();
        multi2.vg = Arc::new(mcdbr_vg::MultiNormalVg::new(4, 0.5));
        assert_ne!(
            PlanNode::random_table(multi).fingerprint(),
            PlanNode::random_table(multi2).fingerprint()
        );

        // The diagnostic table name ships with the plan, so it is in the
        // key too: a rename costs a cache miss, never a wrong hit.
        let mut renamed = losses_spec();
        renamed.name = "Gains".into();
        assert_ne!(
            PlanNode::random_table(losses_spec()).fingerprint(),
            PlanNode::random_table(renamed).fingerprint()
        );

        // Join keys and split columns discriminate.
        let j1 = PlanNode::scan("means").join(PlanNode::scan("sup"), vec![("cid", "cid")]);
        let j2 = PlanNode::scan("means").join(PlanNode::scan("sup"), vec![("m", "cid")]);
        assert_ne!(j1.fingerprint(), j2.fingerprint());
        assert_ne!(
            PlanNode::scan("means").split("cid").fingerprint(),
            PlanNode::scan("means").split("m").fingerprint()
        );
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn vg_column_indices_2_pow_32_apart_fingerprint_apart() {
        let with_vg_col = |vg_col: usize| {
            let mut spec = losses_spec();
            spec.columns.push(OutputColumn::Vg {
                vg_col,
                as_name: "far".into(),
            });
            PlanNode::random_table(spec)
        };
        let far = with_vg_col(1 << 32);
        assert_ne!(with_vg_col(0).fingerprint(), far.fingerprint());
        let mut bytes = Vec::new();
        far.encode_wire(&mut bytes);
        let mut r = Reader::new(&bytes);
        let PlanNode::RandomTable(spec) = PlanNode::decode_wire(&mut r).unwrap() else {
            panic!("a random table decodes as one");
        };
        assert!(matches!(
            spec.columns.last(),
            Some(OutputColumn::Vg { vg_col, .. }) if *vg_col == 1 << 32
        ));
    }

    #[test]
    fn every_binary_op_round_trips_in_wire_order() {
        for (i, &op) in BINARY_OPS.iter().enumerate() {
            assert_eq!(op as usize, i, "{op} is out of declaration order");
            let expr = Expr::Binary {
                op,
                lhs: Box::new(Expr::col("a")),
                rhs: Box::new(Expr::lit(1i64)),
            };
            let mut bytes = Vec::new();
            expr.encode_wire(&mut bytes);
            assert_eq!(bytes[1], i as u8 + 1);
            let mut r = Reader::new(&bytes);
            assert_eq!(Expr::decode_wire(&mut r).unwrap(), expr);
            r.finish("expression").unwrap();
        }
    }

    #[test]
    fn missing_param_column_is_an_error() {
        let catalog = catalog_with_means();
        let mut spec = losses_spec();
        spec.columns.insert(
            0,
            OutputColumn::Param {
                source: "nonexistent".into(),
                as_name: "x".into(),
            },
        );
        assert!(spec.schema(&catalog).is_err());
        // And a plain missing table propagates too.
        let empty = Catalog::new();
        assert!(losses_spec().schema(&empty).is_err());
        let _ = Table::empty(Schema::empty());
    }
}
