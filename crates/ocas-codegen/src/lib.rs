//! OCAL-to-C code generation (paper §3, "Generating C code from OCAL").
//!
//! OCAS emits C "since it is widely used in database systems development".
//! This backend translates a fragment of OCAL into self-contained C99
//! programs over flat `int64_t` arrays:
//!
//! * nested `for` loops over named input relations, blocked or not, with
//!   `if` conditions, tuple construction and list emission — the join
//!   family. A blocked loop becomes a strided loop and the loops over its
//!   block walk that stride. Sequentiality annotations (`for[HDD >> RAM]`)
//!   are dropped: the emitted program holds its inputs in memory;
//! * fully applied lambda wrappers, including the order-inputs swap;
//! * `avg` of an input relation, or of a loop nest that lists one
//!   unchanged.
//!
//! Everything else — `treeFold`, `unfoldR`, `hashPartition`, `foldL`, size
//! annotations — is rejected with [`CodegenError::Unsupported`]. Of the 16
//! Table 1 winners, six lie inside the fragment: the five block nested
//! loops joins and the aggregation. The emitted code compiles with any C99
//! compiler; the workspace's `codegen_winners` test pins which winners
//! generate C, and compiles the synthesized BNL join and aggregation and
//! checks their output against the OCAL reference interpreter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ocal::{BlockSize, DefName, Expr, PrimOp};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// Code-generation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodegenError {
    /// The expression lies outside the supported fragment.
    Unsupported(String),
    /// A named parameter had no value.
    MissingParam(String),
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::Unsupported(what) => write!(f, "cannot generate C for {what}"),
            CodegenError::MissingParam(p) => write!(f, "no value for parameter `{p}`"),
        }
    }
}

impl std::error::Error for CodegenError {}

/// A named input relation in the generated program.
#[derive(Debug, Clone)]
pub struct CInput {
    /// OCAL variable name.
    pub name: String,
    /// Columns per tuple.
    pub width: usize,
}

/// Code generator configuration.
#[derive(Debug, Clone, Default)]
pub struct Codegen {
    /// Values for block-size parameters.
    pub params: BTreeMap<String, u64>,
}

impl Codegen {
    /// Creates a generator with parameter values.
    pub fn new(params: BTreeMap<String, u64>) -> Codegen {
        Codegen { params }
    }

    fn block(&self, b: &BlockSize) -> Result<u64, CodegenError> {
        match b {
            BlockSize::Const(c) => Ok(*c),
            BlockSize::Param(p) => self
                .params
                .get(p)
                .copied()
                .ok_or_else(|| CodegenError::MissingParam(p.clone())),
        }
    }

    /// Emits a complete C program: the runtime prelude, input parsing from
    /// argv-specified binary files of `int64_t`, the algorithm, and a main
    /// that prints the result rows to stdout.
    ///
    /// Inputs are read as flat arrays; a relation of width `w` stores its
    /// tuples row-major.
    pub fn emit_program(&self, program: &Expr, inputs: &[CInput]) -> Result<String, CodegenError> {
        let body = self.emit_algorithm(program, inputs)?;
        let mut out = String::new();
        // main(): load each input from a file given on the command line.
        out.push_str("int main(int argc, char** argv) {\n");
        let _ = writeln!(
            out,
            "    if (argc != {}) {{ fprintf(stderr, \"usage: %s{}\\n\", argv[0]); return 2; }}",
            inputs.len() + 1,
            inputs
                .iter()
                .map(|i| format!(" <{}>", i.name))
                .collect::<String>()
        );
        for (i, input) in inputs.iter().enumerate() {
            let _ = writeln!(
                out,
                "    rel_t {} = load_rel(argv[{}], {});",
                input.name,
                i + 1,
                input.width
            );
        }
        out.push_str("    run_algorithm(");
        let args: Vec<String> = inputs.iter().map(|i| i.name.clone()).collect();
        out.push_str(&args.join(", "));
        out.push_str(");\n");
        for input in inputs {
            let _ = writeln!(out, "    free({}.data);", input.name);
        }
        out.push_str("    return 0;\n}\n");
        Ok(format!("{PRELUDE}\n{body}\n{out}"))
    }

    /// Emits only the `run_algorithm` function.
    pub fn emit_algorithm(
        &self,
        program: &Expr,
        inputs: &[CInput],
    ) -> Result<String, CodegenError> {
        let mut out = String::new();
        out.push_str(PRELUDE_DECL);
        let sig: Vec<String> = inputs.iter().map(|i| format!("rel_t {}", i.name)).collect();
        let _ = writeln!(out, "void run_algorithm({}) {{", sig.join(", "));
        let widths: BTreeMap<String, usize> =
            inputs.iter().map(|i| (i.name.clone(), i.width)).collect();
        let mut cx = EmitCx {
            gen: self,
            widths,
            vars: BTreeMap::new(),
            indent: 1,
            tmp: 0,
        };
        let code = cx.emit_top(program)?;
        out.push_str(&code);
        out.push_str("}\n");
        Ok(out)
    }
}

/// Per-emission context.
struct EmitCx<'a> {
    gen: &'a Codegen,
    /// Tuple widths of the input relations.
    widths: BTreeMap<String, usize>,
    /// Loop variables in scope.
    vars: BTreeMap<String, VarBinding>,
    indent: usize,
    tmp: u32,
}

/// A loop variable: the relation it draws from, its tuple width, and
/// what it is.
struct VarBinding {
    rel: String,
    width: usize,
    kind: Binding,
}

enum Binding {
    /// One tuple, at this C index expression.
    Tuple(String),
    /// A block of tuples: C expressions of its first index and of one past
    /// its last.
    Block { start: String, end: String },
}

impl EmitCx<'_> {
    fn pad(&self) -> String {
        "    ".repeat(self.indent)
    }

    fn fresh(&mut self, base: &str) -> String {
        self.tmp += 1;
        format!("{base}{}", self.tmp)
    }

    fn emit_top(&mut self, e: &Expr) -> Result<String, CodegenError> {
        match e {
            // Lambda-wrapper applications, including curried spines
            // `((λa. λb. body)(x))(y)` (the single-argument assumption here
            // used to reject curried wrappers): β-substitute plain
            // arguments; the order-inputs selector becomes a runtime swap.
            Expr::App { .. } => {
                if let Some((bindings, inner)) = e.applied_lambda_spine() {
                    let mut out = String::new();
                    let mut body = inner.clone();
                    for (param, arg) in bindings {
                        if matches!(arg, Expr::If { .. }) {
                            // The order-inputs wrapper: emit a runtime swap
                            // and bind q.1/q.2 to the length-ordered pair.
                            let p = self.pad();
                            let names: Vec<String> = self.widths.keys().cloned().collect();
                            if names.len() != 2 {
                                return Err(CodegenError::Unsupported(
                                    "order-inputs needs two inputs".into(),
                                ));
                            }
                            let _ = writeln!(out, "{p}/* order-inputs: smaller relation first */");
                            let _ = writeln!(
                                out,
                                "{p}if ({a}.len > {b}.len) \
                                 {{ rel_t t = {a}; {a} = {b}; {b} = t; }}",
                                a = names[0],
                                b = names[1]
                            );
                            body = body.subst(
                                param,
                                &Expr::tuple(vec![
                                    Expr::var(names[0].clone()),
                                    Expr::var(names[1].clone()),
                                ]),
                            );
                        } else {
                            body = body.subst(param, arg);
                        }
                    }
                    let simplified = simplify_projections(&body);
                    out.push_str(&self.emit_top(&simplified)?);
                    return Ok(out);
                }
                // Lambda heads that are not fully applied are outside the
                // fragment; everything else falls to the aggregate shapes.
                let mut head = e;
                while let Expr::App { func, .. } = head {
                    head = func;
                }
                if matches!(head, Expr::Lam { .. }) {
                    return Err(CodegenError::Unsupported(
                        "partially- or over-applied lambda wrapper".into(),
                    ));
                }
                self.emit_aggregate(e)
            }
            Expr::For { .. } => self.emit_loop_nest(e),
            _ => Err(CodegenError::Unsupported(format!(
                "top-level {} expression",
                kind_name(e)
            ))),
        }
    }

    fn emit_aggregate(&mut self, e: &Expr) -> Result<String, CodegenError> {
        let Expr::App { func, arg } = e else {
            return Err(CodegenError::Unsupported("aggregate shape".into()));
        };
        let src = scanned_relation(arg)
            .filter(|rel| self.widths.contains_key(*rel))
            .ok_or_else(|| CodegenError::Unsupported("aggregate over a non-input source".into()))?;
        match &**func {
            Expr::DefRef(DefName::Avg) => {
                let p = self.pad();
                let mut out = String::new();
                let _ = writeln!(out, "{p}/* streaming aggregate: avg */");
                let _ = writeln!(out, "{p}int64_t sum = 0;");
                let _ = writeln!(
                    out,
                    "{p}for (size_t i = 0; i < {src}.len; i++) sum += {src}.data[i];"
                );
                let _ = writeln!(
                    out,
                    "{p}printf(\"%lld\\n\", (long long)({src}.len ? sum / (int64_t){src}.len : 0));"
                );
                Ok(out)
            }
            _ => Err(CodegenError::Unsupported(
                "only avg aggregates are specialized".into(),
            )),
        }
    }

    /// Emits a (possibly blocked) loop nest ending in an `if`-guarded tuple
    /// emission — the join family.
    fn emit_loop_nest(&mut self, e: &Expr) -> Result<String, CodegenError> {
        let mut out = String::new();
        let mut cur = e;
        let mut opened = 0usize;
        loop {
            match cur {
                Expr::For {
                    var,
                    block,
                    source,
                    body,
                    ..
                } => {
                    let (rel, width, start, end) = self.loop_range(source)?;
                    let k = self.gen.block(block)?;
                    if k == 0 {
                        return Err(CodegenError::Unsupported(format!(
                            "block size 0 for `{var}`"
                        )));
                    }
                    let idx = self.fresh("i");
                    let p = self.pad();
                    let kind = if k == 1 {
                        let _ = writeln!(
                            out,
                            "{p}for (size_t {idx} = {start}; {idx} < {end}; {idx}++) {{"
                        );
                        Binding::Tuple(idx)
                    } else {
                        let _ = writeln!(
                            out,
                            "{p}for (size_t {idx} = {start}; {idx} < {end}; {idx} += {k}) {{ \
                             /* block of {k} tuples */"
                        );
                        let end = format!("({idx} + {k} < {end} ? {idx} + {k} : {end})");
                        Binding::Block { start: idx, end }
                    };
                    self.vars
                        .insert(var.clone(), VarBinding { rel, width, kind });
                    self.indent += 1;
                    opened += 1;
                    cur = body;
                }
                Expr::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    if !matches!(**else_branch, Expr::Empty) {
                        return Err(CodegenError::Unsupported(
                            "if with a non-empty else branch".into(),
                        ));
                    }
                    let c = self.emit_scalar(cond)?;
                    let p = self.pad();
                    let _ = writeln!(out, "{p}if ({c}) {{");
                    self.indent += 1;
                    opened += 1;
                    cur = then_branch;
                    continue;
                }
                Expr::Singleton(inner) => {
                    out.push_str(&self.emit_emit(inner)?);
                    break;
                }
                other => {
                    return Err(CodegenError::Unsupported(format!(
                        "loop body {}",
                        kind_name(other)
                    )))
                }
            }
        }
        for _ in 0..opened {
            self.indent -= 1;
            let p = self.pad();
            let _ = writeln!(out, "{p}}}");
        }
        Ok(out)
    }

    /// The relation, tuple width and C index range that a loop over `source`
    /// walks: a whole input relation, or a block bound by an enclosing loop.
    fn loop_range(&self, source: &Expr) -> Result<(String, usize, String, String), CodegenError> {
        let Expr::Var(v) = source else {
            return Err(CodegenError::Unsupported(format!(
                "loop over non-input source `{}`",
                ocal::pretty(source)
            )));
        };
        match self.vars.get(v) {
            Some(VarBinding {
                rel,
                width,
                kind: Binding::Block { start, end },
            }) => Ok((rel.clone(), *width, start.clone(), end.clone())),
            Some(_) => Err(CodegenError::Unsupported(format!(
                "loop over the tuple `{v}`"
            ))),
            None => {
                let width = *self
                    .widths
                    .get(v)
                    .ok_or_else(|| CodegenError::Unsupported(format!("unbound `{v}`")))?;
                Ok((v.clone(), width, "0".into(), format!("{v}.len")))
            }
        }
    }

    /// The relation, C index expression and width of the tuple variable `v`.
    fn tuple(&self, v: &str) -> Result<(&str, &str, usize), CodegenError> {
        match self.vars.get(v) {
            Some(VarBinding {
                rel,
                width,
                kind: Binding::Tuple(index),
            }) => Ok((rel, index, *width)),
            Some(_) => Err(CodegenError::Unsupported(format!(
                "block `{v}` used as a tuple"
            ))),
            None => Err(CodegenError::Unsupported(format!("unbound `{v}`"))),
        }
    }

    /// Emits the tuple-emission statement.
    fn emit_emit(&mut self, tuple: &Expr) -> Result<String, CodegenError> {
        let p = self.pad();
        let mut cols: Vec<String> = Vec::new();
        match tuple {
            Expr::Tuple(items) => {
                for item in items {
                    match item {
                        Expr::Var(v) => {
                            let (rel, index, width) = self.tuple(v)?;
                            for c in 0..width {
                                cols.push(format!("{rel}.data[({index}) * {width} + {c}]"));
                            }
                        }
                        other => cols.push(self.emit_scalar(other)?),
                    }
                }
            }
            other => cols.push(self.emit_scalar(other)?),
        }
        let mut out = String::new();
        let fmtstr = vec!["%lld"; cols.len()].join(" ");
        let args: Vec<String> = cols.iter().map(|c| format!("(long long)({c})")).collect();
        let _ = writeln!(out, "{p}printf(\"{fmtstr}\\n\", {});", args.join(", "));
        Ok(out)
    }

    /// Emits a scalar expression (conditions, projections, arithmetic).
    fn emit_scalar(&mut self, e: &Expr) -> Result<String, CodegenError> {
        match e {
            Expr::Int(n) => Ok(format!("{n}")),
            Expr::Bool(b) => Ok(if *b { "1" } else { "0" }.to_string()),
            Expr::Var(v) => {
                let (rel, index, width) = self.tuple(v)?;
                Ok(format!("{rel}.data[({index}) * {width}]"))
            }
            Expr::Proj { tuple, index } => match &**tuple {
                Expr::Var(v) => {
                    let (rel, at, width) = self.tuple(v)?;
                    Ok(format!("{rel}.data[({at}) * {width} + {}]", index - 1))
                }
                _ => Err(CodegenError::Unsupported("nested projection".into())),
            },
            Expr::Prim { op, args } => {
                let c_op = match op {
                    PrimOp::Eq => "==",
                    PrimOp::Ne => "!=",
                    PrimOp::Lt => "<",
                    PrimOp::Le => "<=",
                    PrimOp::Gt => ">",
                    PrimOp::Ge => ">=",
                    PrimOp::Add => "+",
                    PrimOp::Sub => "-",
                    PrimOp::Mul => "*",
                    PrimOp::Div => "/",
                    PrimOp::Mod => "%",
                    PrimOp::And => "&&",
                    PrimOp::Or => "||",
                    PrimOp::Not => {
                        let a = self.emit_scalar(&args[0])?;
                        return Ok(format!("!({a})"));
                    }
                    PrimOp::Hash => {
                        let a = self.emit_scalar(&args[0])?;
                        return Ok(format!("ocal_hash({a})"));
                    }
                };
                let a = self.emit_scalar(&args[0])?;
                let b = self.emit_scalar(&args[1])?;
                Ok(format!("({a} {c_op} {b})"))
            }
            other => Err(CodegenError::Unsupported(format!(
                "scalar {}",
                kind_name(other)
            ))),
        }
    }
}

/// The input relation whose tuples `e` lists unchanged and in order: the
/// relation itself, or a loop nest over it (blocked or not) that emits each
/// tuple as it is.
fn scanned_relation(e: &Expr) -> Option<&str> {
    match e {
        Expr::Var(v) => Some(v),
        Expr::For {
            var, source, body, ..
        } => {
            let lists_var = matches!(&**body, Expr::Singleton(x) if matches!(&**x, Expr::Var(y) if y == var))
                || scanned_relation(body) == Some(var.as_str());
            lists_var.then(|| scanned_relation(source)).flatten()
        }
        _ => None,
    }
}

/// Rewrites `⟨a, b⟩.1` to `a` (cleanup after the order-inputs substitution).
fn simplify_projections(e: &Expr) -> Expr {
    let rec = e.map_children(simplify_projections);
    if let Expr::Proj { tuple, index } = &rec {
        if let Expr::Tuple(items) = &**tuple {
            if let Some(item) = items.get((*index as usize).saturating_sub(1)) {
                return item.clone();
            }
        }
    }
    rec
}

fn kind_name(e: &Expr) -> &'static str {
    match e {
        Expr::Var(_) => "variable",
        Expr::Int(_) | Expr::Bool(_) | Expr::Str(_) => "literal",
        Expr::Lam { .. } => "lambda",
        Expr::App { .. } => "application",
        Expr::Tuple(_) => "tuple",
        Expr::Proj { .. } => "projection",
        Expr::Singleton(_) => "singleton",
        Expr::Empty => "empty list",
        Expr::Union { .. } => "union",
        Expr::FlatMap { .. } => "flatMap",
        Expr::FoldL { .. } => "foldL",
        Expr::If { .. } => "if",
        Expr::Prim { .. } => "primitive",
        Expr::For { .. } => "for",
        Expr::DefRef(_) => "definition",
        Expr::Sized { .. } => "size annotation",
    }
}

/// Shared C declarations (types + helpers), included in both full programs
/// and bare algorithm emissions.
const PRELUDE_DECL: &str = r#"/* generated by ocas-codegen */
"#;

/// Full runtime prelude for standalone programs.
const PRELUDE: &str = r#"#include <stdio.h>
#include <stdlib.h>
#include <stdint.h>

typedef struct { int64_t* data; size_t len; size_t width; } rel_t;

static uint64_t ocal_hash(int64_t v) {
    uint64_t h = 0xcbf29ce484222325ull;
    unsigned char tag = 1;
    h = (h ^ tag) * 0x100000001b3ull;
    for (int i = 0; i < 8; i++) {
        h = (h ^ (unsigned char)(v >> (8 * i))) * 0x100000001b3ull;
    }
    return h;
}

static rel_t load_rel(const char* path, size_t width) {
    FILE* f = fopen(path, "rb");
    if (!f) { perror(path); exit(1); }
    fseek(f, 0, SEEK_END);
    long bytes = ftell(f);
    fseek(f, 0, SEEK_SET);
    rel_t r;
    r.width = width;
    r.len = (size_t)bytes / sizeof(int64_t) / width;
    r.data = (int64_t*)malloc((size_t)bytes);
    if (fread(r.data, 1, (size_t)bytes, f) != (size_t)bytes) { perror("fread"); exit(1); }
    fclose(f);
    return r;
}
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use ocal::parse;

    fn gen() -> Codegen {
        Codegen::new(
            [("k0".to_string(), 128u64), ("k1".to_string(), 64)]
                .into_iter()
                .collect(),
        )
    }

    fn join_inputs() -> Vec<CInput> {
        vec![
            CInput {
                name: "R".into(),
                width: 2,
            },
            CInput {
                name: "S".into(),
                width: 2,
            },
        ]
    }

    #[test]
    fn emits_naive_join() {
        let p = parse("for (x <- R) for (y <- S) if x.1 == y.1 then [<x, y>] else []").unwrap();
        let c = gen().emit_program(&p, &join_inputs()).unwrap();
        assert!(c.contains("for (size_t i1 = 0; i1 < R.len; i1++)"), "{c}");
        assert!(c.contains("for (size_t i2 = 0; i2 < S.len; i2++)"), "{c}");
        assert!(c.contains("== S.data"), "{c}");
        assert!(c.contains("int main"), "{c}");
    }

    #[test]
    fn emits_blocked_join_with_block_comments() {
        let p = parse(
            "for (xB [k0] <- R) for (yB [k1] <- S) for (x <- xB) for (y <- yB) \
             if x.1 == y.1 then [<x, y>] else []",
        )
        .unwrap();
        let c = gen().emit_program(&p, &join_inputs()).unwrap();
        assert!(c.contains("i1 += 128"), "block size k0 inlined: {c}");
        assert!(c.contains("i2 += 64"), "block size k1 inlined: {c}");
        // The element loops walk their blocks, clipped at the relation's end.
        assert!(
            c.contains("for (size_t i3 = i1; i3 < (i1 + 128 < R.len ? i1 + 128 : R.len); i3++)"),
            "{c}"
        );
        assert!(
            c.contains("for (size_t i4 = i2; i4 < (i2 + 64 < S.len ? i2 + 64 : S.len); i4++)"),
            "{c}"
        );
    }

    #[test]
    fn emits_order_inputs_swap() {
        let p = parse(
            "(\\q. for (x <- q.1) for (y <- q.2) if x.1 == y.1 then [<x, y>] else [])\
             (if length(R) <= length(S) then <R, S> else <S, R>)",
        )
        .unwrap();
        let c = gen().emit_program(&p, &join_inputs()).unwrap();
        assert!(c.contains("order-inputs"), "{c}");
        assert!(c.contains("rel_t t = R"), "{c}");
    }

    #[test]
    fn emits_curried_wrapper_join() {
        // Curried-application regression: a fully-applied two-argument
        // wrapper β-substitutes into the same join loops.
        let p = parse(
            "((\\a. \\b. for (x <- a) for (y <- b) if x.1 == y.1 then [<x, y>] else [])(R))(S)",
        )
        .unwrap();
        let c = gen().emit_program(&p, &join_inputs()).unwrap();
        assert!(c.contains("for (size_t i1 = 0; i1 < R.len; i1++)"), "{c}");
        assert!(c.contains("for (size_t i2 = 0; i2 < S.len; i2++)"), "{c}");
    }

    #[test]
    fn emits_aggregate() {
        let l = [CInput {
            name: "L".into(),
            width: 1,
        }];
        // Over the relation, or over a (blocked) loop nest that lists it.
        for src in ["avg(L)", "avg(for (xB [k0] <- L) for (x <- xB) [x])"] {
            let c = gen().emit_program(&parse(src).unwrap(), &l).unwrap();
            assert!(c.contains("sum += L.data[i]"), "{src}: {c}");
        }
        // A loop that changes the tuples is not a scan of `L`.
        let p = parse("avg(for (x <- L) [x + 1])").unwrap();
        let err = gen().emit_program(&p, &l).unwrap_err();
        assert!(matches!(err, CodegenError::Unsupported(_)), "{err}");
    }

    #[test]
    fn rejects_unsupported_shapes() {
        let p = parse("foldL([], unfoldR(mrg))(R)").unwrap();
        let err = gen()
            .emit_program(
                &p,
                &[CInput {
                    name: "R".into(),
                    width: 1,
                }],
            )
            .unwrap_err();
        assert!(matches!(err, CodegenError::Unsupported(_)));
        let missing = parse("for (xB [k9] <- R) for (x <- xB) [x]").unwrap();
        let err = gen().emit_program(&missing, &join_inputs()).unwrap_err();
        assert!(matches!(err, CodegenError::MissingParam(_)));
    }
}
