//! Parser for the ASCII concrete syntax of OCAL.
//!
//! The syntax is what [`crate::pretty()`] prints:
//!
//! ```text
//! program  := expr
//! expr     := '\' IDENT '.' expr                    -- λ-abstraction
//!           | 'if' expr 'then' expr 'else' expr
//!           | 'for' seq? '(' IDENT blk? '<-' expr ')' blk? expr
//!           | binary operator expression
//! seq      := '[' IDENT '>>' IDENT ']'
//! blk      := '[' (NUM | IDENT) ']'
//! atoms    := NUM | 'true' | 'false' | STRING | IDENT | '<' e, … '>'
//!           | '[' e ']' | '[]' | '(' e ')' | definition names
//! postfix  := atom ('(' expr ')' | '.' NUM)*
//! ```
//!
//! Operator precedence (loosest first): `++`, `||`, `&&`, comparisons,
//! `+ -`, `* / %`, prefix `!`/`-`, application/projection.
//!
//! Caveats inherited from using `<`/`>` for both tuples and comparisons:
//! comparisons directly inside tuple literals must be parenthesized, and
//! `<-` always lexes as the `for` arrow (write `a < (-1)` when needed).

use crate::ast::{BlockSize, DefName, Expr, PrimOp, SeqAnnot};
use std::fmt;

/// Parse errors with character positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input.
    pub offset: usize,
    /// Explanation.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Num(i64),
    Str(String),
    // Punctuation / operators.
    LParen,
    RParen,
    LBracket,
    RBracket,
    Lt,
    Gt,
    Comma,
    Dot,
    Lambda,
    Arrow,    // <-
    SeqArrow, // >>
    PlusPlus, // ++
    EqEq,
    NotEq,
    Le,
    Ge,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    AndAnd,
    OrOr,
    Bang,
    Eof,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek_byte(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn tokens(mut self) -> Result<Vec<(usize, Tok)>, ParseError> {
        let mut out = Vec::new();
        loop {
            while matches!(self.peek_byte(), Some(b) if b.is_ascii_whitespace()) {
                self.pos += 1;
            }
            let start = self.pos;
            let Some(b) = self.peek_byte() else {
                out.push((start, Tok::Eof));
                return Ok(out);
            };
            let tok = match b {
                b'(' => {
                    self.pos += 1;
                    Tok::LParen
                }
                b')' => {
                    self.pos += 1;
                    Tok::RParen
                }
                b'[' => {
                    self.pos += 1;
                    Tok::LBracket
                }
                b']' => {
                    self.pos += 1;
                    Tok::RBracket
                }
                b',' => {
                    self.pos += 1;
                    Tok::Comma
                }
                b'.' => {
                    self.pos += 1;
                    Tok::Dot
                }
                b'\\' => {
                    self.pos += 1;
                    Tok::Lambda
                }
                b'<' => {
                    self.pos += 1;
                    match self.peek_byte() {
                        Some(b'-') => {
                            self.pos += 1;
                            Tok::Arrow
                        }
                        Some(b'=') => {
                            self.pos += 1;
                            Tok::Le
                        }
                        _ => Tok::Lt,
                    }
                }
                b'>' => {
                    self.pos += 1;
                    match self.peek_byte() {
                        Some(b'=') => {
                            self.pos += 1;
                            Tok::Ge
                        }
                        Some(b'>') => {
                            self.pos += 1;
                            Tok::SeqArrow
                        }
                        _ => Tok::Gt,
                    }
                }
                b'+' => {
                    self.pos += 1;
                    if self.peek_byte() == Some(b'+') {
                        self.pos += 1;
                        Tok::PlusPlus
                    } else {
                        Tok::Plus
                    }
                }
                b'-' => {
                    self.pos += 1;
                    Tok::Minus
                }
                b'*' => {
                    self.pos += 1;
                    Tok::Star
                }
                b'/' => {
                    self.pos += 1;
                    Tok::Slash
                }
                b'%' => {
                    self.pos += 1;
                    Tok::Percent
                }
                b'!' => {
                    self.pos += 1;
                    if self.peek_byte() == Some(b'=') {
                        self.pos += 1;
                        Tok::NotEq
                    } else {
                        Tok::Bang
                    }
                }
                b'=' => {
                    self.pos += 1;
                    if self.peek_byte() == Some(b'=') {
                        self.pos += 1;
                        Tok::EqEq
                    } else {
                        return Err(self.error("expected `==`"));
                    }
                }
                b'&' => {
                    self.pos += 1;
                    if self.peek_byte() == Some(b'&') {
                        self.pos += 1;
                        Tok::AndAnd
                    } else {
                        return Err(self.error("expected `&&`"));
                    }
                }
                b'|' => {
                    self.pos += 1;
                    if self.peek_byte() == Some(b'|') {
                        self.pos += 1;
                        Tok::OrOr
                    } else {
                        return Err(self.error("expected `||`"));
                    }
                }
                b'"' => {
                    self.pos += 1;
                    let begin = self.pos;
                    while let Some(c) = self.peek_byte() {
                        if c == b'"' {
                            break;
                        }
                        self.pos += 1;
                    }
                    if self.peek_byte() != Some(b'"') {
                        return Err(self.error("unterminated string literal"));
                    }
                    let text = std::str::from_utf8(&self.src[begin..self.pos])
                        .map_err(|_| self.error("invalid utf-8 in string"))?
                        .to_string();
                    self.pos += 1;
                    Tok::Str(text)
                }
                b'0'..=b'9' => {
                    let begin = self.pos;
                    while matches!(self.peek_byte(), Some(c) if c.is_ascii_digit()) {
                        self.pos += 1;
                    }
                    let text = std::str::from_utf8(&self.src[begin..self.pos]).unwrap();
                    let n: i64 = text
                        .parse()
                        .map_err(|_| self.error("integer literal out of range"))?;
                    Tok::Num(n)
                }
                c if c.is_ascii_alphabetic() || c == b'_' => {
                    let begin = self.pos;
                    while matches!(self.peek_byte(), Some(c) if c.is_ascii_alphanumeric() || c == b'_')
                    {
                        self.pos += 1;
                    }
                    Tok::Ident(
                        std::str::from_utf8(&self.src[begin..self.pos])
                            .unwrap()
                            .to_string(),
                    )
                }
                other => {
                    return Err(self.error(format!("unexpected character `{}`", other as char)))
                }
            };
            out.push((start, tok));
        }
    }
}

struct Parser {
    toks: Vec<(usize, Tok)>,
    pos: usize,
    /// True while parsing directly inside tuple items, where a bare `<`/`>`
    /// would be ambiguous with the tuple delimiters; comparisons there must
    /// be parenthesized (the pretty printer does so).
    angle: bool,
}

/// Parses a complete OCAL expression.
pub fn parse(src: &str) -> Result<Expr, ParseError> {
    let toks = Lexer::new(src).tokens()?;
    let mut p = Parser {
        toks,
        pos: 0,
        angle: false,
    };
    let e = p.expr()?;
    p.expect(Tok::Eof, "end of input")?;
    Ok(e)
}

impl Parser {
    /// Runs `f` with the angle-ambiguity guard cleared (inside any
    /// explicitly delimited context such as parentheses or brackets).
    fn with_delim<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let saved = std::mem::replace(&mut self.angle, false);
        let r = f(self);
        self.angle = saved;
        r
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].1
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].1
    }

    fn offset(&self) -> usize {
        self.toks[self.pos].0
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].1.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.offset(),
            message: message.into(),
        }
    }

    fn expect(&mut self, tok: Tok, what: &str) -> Result<(), ParseError> {
        if *self.peek() == tok {
            self.bump();
            Ok(())
        } else {
            Err(self.error(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    /// Consumes one `>`. The lexer greedily turns `>>` (two nested tuple
    /// closes) into the sequentiality arrow; when a tuple close is expected,
    /// split that token back into two `>`s.
    fn expect_gt(&mut self) -> Result<(), ParseError> {
        match self.peek() {
            Tok::Gt => {
                self.bump();
                Ok(())
            }
            Tok::SeqArrow => {
                let offset = self.toks[self.pos].0;
                self.toks[self.pos] = (offset + 1, Tok::Gt);
                Ok(())
            }
            other => Err(self.error(format!("expected `>` closing tuple, found {other:?}"))),
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, ParseError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(ParseError {
                offset: self.toks[self.pos.saturating_sub(1)].0,
                message: format!("expected {what}, found {other:?}"),
            }),
        }
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Tok::Lambda => {
                self.bump();
                let param = self.ident("lambda parameter")?;
                self.expect(Tok::Dot, "`.` after lambda parameter")?;
                let body = self.expr()?;
                Ok(Expr::lam(param, body))
            }
            Tok::Ident(kw) if kw == "if" => {
                self.bump();
                let cond = self.expr()?;
                self.keyword("then")?;
                let t = self.expr()?;
                self.keyword("else")?;
                let e = self.expr()?;
                Ok(Expr::if_(cond, t, e))
            }
            Tok::Ident(kw) if kw == "for" => self.for_expr(),
            _ => self.union_expr(),
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.peek() {
            Tok::Ident(s) if s == kw => {
                self.bump();
                Ok(())
            }
            other => Err(self.error(format!("expected `{kw}`, found {other:?}"))),
        }
    }

    fn block_size(&mut self) -> Result<BlockSize, ParseError> {
        // Caller consumed `[`.
        let b = match self.bump() {
            Tok::Num(n) if n > 0 => BlockSize::Const(n as u64),
            Tok::Ident(p) => BlockSize::Param(p),
            other => return Err(self.error(format!("expected block size, found {other:?}"))),
        };
        self.expect(Tok::RBracket, "`]` after block size")?;
        Ok(b)
    }

    fn for_expr(&mut self) -> Result<Expr, ParseError> {
        self.keyword("for")?;
        let mut seq = None;
        if *self.peek() == Tok::LBracket {
            self.bump();
            let from = self.ident("sequentiality source node")?;
            self.expect(Tok::SeqArrow, "`>>` in sequentiality annotation")?;
            let to = self.ident("sequentiality destination node")?;
            self.expect(Tok::RBracket, "`]` closing sequentiality annotation")?;
            seq = Some(SeqAnnot { from, to });
        }
        self.expect(Tok::LParen, "`(` after `for`")?;
        let var = self.ident("loop variable")?;
        let mut block = BlockSize::one();
        if *self.peek() == Tok::LBracket {
            self.bump();
            block = self.block_size()?;
        }
        self.expect(Tok::Arrow, "`<-` in for")?;
        let source = self.with_delim(|p| p.expr())?;
        self.expect(Tok::RParen, "`)` closing for header")?;
        let mut out_block = BlockSize::one();
        if *self.peek() == Tok::LBracket {
            // Lookahead: `[` here is an output block only if it encloses a
            // single number/ident followed by `]` and then more input; an
            // expression like `[x]` (singleton body) is also shaped that way,
            // so we disambiguate: output blocks are only recognized when the
            // token after `]` starts an expression. We prefer the block
            // reading, matching the printer, unless the bracket holds a
            // literal that is itself the entire body.
            let save = self.pos;
            self.bump();
            match (self.peek().clone(), self.peek2().clone()) {
                (Tok::Num(n), Tok::RBracket) if n > 0 => {
                    self.bump();
                    self.bump();
                    if self.starts_expr() {
                        out_block = BlockSize::Const(n as u64);
                    } else {
                        // `[n]` was the body: a singleton literal.
                        let body = Expr::Int(n).singleton();
                        return Ok(Expr::For {
                            var,
                            block,
                            source: Box::new(source),
                            out_block,
                            body: Box::new(body),
                            seq,
                        });
                    }
                }
                (Tok::Ident(p), Tok::RBracket) => {
                    self.bump();
                    self.bump();
                    if self.starts_expr() {
                        out_block = BlockSize::Param(p);
                    } else {
                        let body = Expr::var(p).singleton();
                        return Ok(Expr::For {
                            var,
                            block,
                            source: Box::new(source),
                            out_block,
                            body: Box::new(body),
                            seq,
                        });
                    }
                }
                _ => {
                    self.pos = save;
                }
            }
        }
        let body = self.expr()?;
        Ok(Expr::For {
            var,
            block,
            source: Box::new(source),
            out_block,
            body: Box::new(body),
            seq,
        })
    }

    fn starts_expr(&self) -> bool {
        match self.peek() {
            Tok::Ident(kw) if kw == "then" || kw == "else" => false,
            Tok::Ident(_)
            | Tok::Num(_)
            | Tok::Str(_)
            | Tok::LParen
            | Tok::LBracket
            | Tok::Lt
            | Tok::Lambda
            | Tok::Bang
            | Tok::Minus => true,
            _ => false,
        }
    }

    fn union_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.or_expr()?;
        while *self.peek() == Tok::PlusPlus {
            self.bump();
            let rhs = self.or_expr()?;
            e = e.union(rhs);
        }
        Ok(e)
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.and_expr()?;
        while *self.peek() == Tok::OrOr {
            self.bump();
            let rhs = self.and_expr()?;
            e = Expr::binop(PrimOp::Or, e, rhs);
        }
        Ok(e)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.cmp_expr()?;
        while *self.peek() == Tok::AndAnd {
            self.bump();
            let rhs = self.cmp_expr()?;
            e = Expr::binop(PrimOp::And, e, rhs);
        }
        Ok(e)
    }

    fn cmp_expr(&mut self) -> Result<Expr, ParseError> {
        let e = self.add_expr()?;
        let op = match self.peek() {
            Tok::EqEq => Some(PrimOp::Eq),
            Tok::NotEq => Some(PrimOp::Ne),
            Tok::Lt if !self.angle => Some(PrimOp::Lt),
            Tok::Gt if !self.angle => Some(PrimOp::Gt),
            Tok::Le => Some(PrimOp::Le),
            Tok::Ge => Some(PrimOp::Ge),
            _ => None,
        };
        match op {
            Some(op) => {
                self.bump();
                let rhs = self.add_expr()?;
                Ok(Expr::binop(op, e, rhs))
            }
            None => Ok(e),
        }
    }

    fn add_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => PrimOp::Add,
                Tok::Minus => PrimOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.mul_expr()?;
            e = Expr::binop(op, e, rhs);
        }
        Ok(e)
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Star => PrimOp::Mul,
                Tok::Slash => PrimOp::Div,
                Tok::Percent => PrimOp::Mod,
                _ => break,
            };
            self.bump();
            let rhs = self.unary_expr()?;
            e = Expr::binop(op, e, rhs);
        }
        Ok(e)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Tok::Bang => {
                self.bump();
                let e = self.unary_expr()?;
                Ok(Expr::prim(PrimOp::Not, vec![e]))
            }
            Tok::Minus => {
                self.bump();
                let e = self.unary_expr()?;
                Ok(Expr::binop(PrimOp::Sub, Expr::Int(0), e))
            }
            _ => self.postfix_expr(),
        }
    }

    fn postfix_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.atom()?;
        loop {
            match self.peek() {
                Tok::LParen => {
                    self.bump();
                    let arg = self.with_delim(|p| p.expr())?;
                    self.expect(Tok::RParen, "`)` closing application")?;
                    e = e.app(arg);
                }
                Tok::Dot => {
                    self.bump();
                    match self.bump() {
                        Tok::Num(n) if n >= 1 => {
                            e = e.proj(n as u32);
                        }
                        other => {
                            return Err(self.error(format!(
                                "expected 1-based projection index, found {other:?}"
                            )))
                        }
                    }
                }
                _ => break,
            }
        }
        Ok(e)
    }

    /// Parses an optional `[n]`-style static parameter after a definition name.
    fn def_param(&mut self, what: &str) -> Result<BlockSize, ParseError> {
        self.expect(Tok::LBracket, &format!("`[` after {what}"))?;
        self.block_size()
    }

    fn atom(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            Tok::Num(n) => {
                self.bump();
                Ok(Expr::Int(n))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(Expr::Str(s))
            }
            Tok::LParen => {
                self.bump();
                let e = self.with_delim(|p| p.expr())?;
                self.expect(Tok::RParen, "`)`")?;
                Ok(e)
            }
            Tok::Lt => {
                self.bump();
                let saved = self.angle;
                self.angle = true;
                let first = self.expr();
                self.angle = saved;
                let mut items = vec![first?];
                while *self.peek() == Tok::Comma {
                    self.bump();
                    let saved = self.angle;
                    self.angle = true;
                    let item = self.expr();
                    self.angle = saved;
                    items.push(item?);
                }
                self.expect_gt()?;
                Ok(Expr::Tuple(items))
            }
            Tok::LBracket => {
                self.bump();
                if *self.peek() == Tok::RBracket {
                    self.bump();
                    return Ok(Expr::Empty);
                }
                let e = self.with_delim(|p| p.expr())?;
                self.expect(Tok::RBracket, "`]` closing singleton list")?;
                Ok(e.singleton())
            }
            Tok::Lambda => {
                // A lambda nested in operator position (e.g. as an argument).
                self.expr()
            }
            Tok::Ident(name) => {
                self.bump();
                match name.as_str() {
                    "then" | "else" => {
                        Err(self.error(format!("keyword `{name}` cannot start an expression")))
                    }
                    "true" => Ok(Expr::Bool(true)),
                    "false" => Ok(Expr::Bool(false)),
                    "if" | "for" => {
                        // Control expressions can appear in atom position
                        // when parenthesized at call sites; rewind and parse.
                        self.pos -= 1;
                        self.expr()
                    }
                    "flatMap" => {
                        self.expect(Tok::LParen, "`(` after flatMap")?;
                        let f = self.with_delim(|p| p.expr())?;
                        self.expect(Tok::RParen, "`)` closing flatMap")?;
                        Ok(Expr::flat_map(f))
                    }
                    "foldL" => {
                        self.expect(Tok::LParen, "`(` after foldL")?;
                        let init = self.with_delim(|p| p.expr())?;
                        self.expect(Tok::Comma, "`,` between foldL arguments")?;
                        let f = self.with_delim(|p| p.expr())?;
                        self.expect(Tok::RParen, "`)` closing foldL")?;
                        Ok(Expr::fold_l(init, f))
                    }
                    "hash" => {
                        self.expect(Tok::LParen, "`(` after hash")?;
                        let e = self.with_delim(|p| p.expr())?;
                        self.expect(Tok::RParen, "`)` closing hash")?;
                        Ok(Expr::prim(PrimOp::Hash, vec![e]))
                    }
                    "head" => Ok(Expr::def(DefName::Head)),
                    "tail" => Ok(Expr::def(DefName::Tail)),
                    "length" => Ok(Expr::def(DefName::Length)),
                    "avg" => Ok(Expr::def(DefName::Avg)),
                    "mrg" => Ok(Expr::def(DefName::Mrg)),
                    "unfoldR" => {
                        if *self.peek() == Tok::LBracket {
                            self.bump();
                            let b_in = match self.bump() {
                                Tok::Num(n) if n > 0 => BlockSize::Const(n as u64),
                                Tok::Ident(p) => BlockSize::Param(p),
                                other => {
                                    return Err(
                                        self.error(format!("expected block size, found {other:?}"))
                                    )
                                }
                            };
                            self.expect(Tok::Comma, "`,` between unfoldR block sizes")?;
                            let b_out = match self.bump() {
                                Tok::Num(n) if n > 0 => BlockSize::Const(n as u64),
                                Tok::Ident(p) => BlockSize::Param(p),
                                other => {
                                    return Err(
                                        self.error(format!("expected block size, found {other:?}"))
                                    )
                                }
                            };
                            self.expect(Tok::RBracket, "`]` closing unfoldR block sizes")?;
                            Ok(Expr::def(DefName::UnfoldR { b_in, b_out }))
                        } else {
                            Ok(Expr::def(DefName::unfoldr()))
                        }
                    }
                    "partition" => Ok(Expr::def(DefName::Partition)),
                    "treeFold" => {
                        let k = self.def_param("treeFold")?;
                        Ok(Expr::def(DefName::TreeFold(k)))
                    }
                    "hashPartition" => {
                        let s = self.def_param("hashPartition")?;
                        Ok(Expr::def(DefName::HashPartition(s)))
                    }
                    "zip" => {
                        let n = self.def_param("zip")?;
                        match n {
                            BlockSize::Const(n) => Ok(Expr::def(DefName::Zip(n as u32))),
                            BlockSize::Param(_) => Err(self.error("zip arity must be a constant")),
                        }
                    }
                    "funcPow" => {
                        let k = self.def_param("funcPow")?;
                        match k {
                            BlockSize::Const(k) => Ok(Expr::def(DefName::FuncPow(k as u32))),
                            BlockSize::Param(_) => {
                                Err(self.error("funcPow exponent must be a constant"))
                            }
                        }
                    }
                    _ => Ok(Expr::var(name)),
                }
            }
            other => Err(self.error(format!("unexpected token {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pretty::pretty;

    fn round_trip(src: &str) {
        let e = parse(src).unwrap_or_else(|err| panic!("parse `{src}`: {err}"));
        let printed = pretty(&e);
        let e2 = parse(&printed).unwrap_or_else(|err| panic!("reparse `{printed}`: {err}"));
        assert_eq!(
            e.alpha_canonical(),
            e2.alpha_canonical(),
            "round trip failed: `{src}` -> `{printed}`"
        );
    }

    #[test]
    fn parses_naive_join() {
        let src = "for (x <- R) for (y <- S) if x.1 == y.1 then [<x, y>] else []";
        let e = parse(src).unwrap();
        assert_eq!(pretty(&e), src);
    }

    #[test]
    fn parses_blocked_join_with_seq_annotation() {
        let src = "for (xb [k1] <- R) for[HDD >> RAM] (yb [k2] <- S) \
                   for (x <- xb) for (y <- yb) if x.1 == y.1 then [<x, y>] else []";
        let e = parse(src).unwrap();
        match &e {
            Expr::For { body, .. } => match &**body {
                Expr::For { seq, .. } => {
                    let s = seq.as_ref().expect("seq annotation");
                    assert_eq!(s.from, "HDD");
                    assert_eq!(s.to, "RAM");
                }
                other => panic!("expected inner for, got {other:?}"),
            },
            other => panic!("expected for, got {other:?}"),
        }
        round_trip(src);
    }

    #[test]
    fn parses_sort_programs() {
        round_trip("foldL([], unfoldR(mrg))(R)");
        round_trip("treeFold[4](<[], unfoldR(funcPow[2](mrg))>)(R)");
    }

    #[test]
    fn parses_lambdas_and_projection() {
        round_trip("\\p. foldL(0, \\a. a.1 + a.2)(p)");
        round_trip("(\\x. x)(42)");
    }

    #[test]
    fn parses_order_inputs_wrapper() {
        round_trip("(\\p. if length(p.1) <= length(p.2) then <p.1, p.2> else <p.2, p.1>)(<R, S>)");
    }

    #[test]
    fn parses_hash_partition_pipeline() {
        round_trip("flatMap(\\q. q.1 ++ q.2)(unfoldR(zip[2])(<hashPartition[s1](R), hashPartition[s1](S)>))");
    }

    #[test]
    fn parses_operators_with_precedence() {
        let e = parse("1 + 2 * 3 == 7 && true").unwrap();
        assert_eq!(pretty(&e), "1 + 2 * 3 == 7 && true");
        round_trip("a ++ b ++ c");
        round_trip("!(x == y)");
        round_trip("hash(x) % 16");
    }

    #[test]
    fn singleton_body_for_is_not_output_block() {
        // `for (x <- R) [x]` — the bracket is a singleton body.
        let e = parse("for (x <- R) [x]").unwrap();
        match &e {
            Expr::For {
                out_block, body, ..
            } => {
                assert!(out_block.is_one());
                assert!(matches!(&**body, Expr::Singleton(_)));
            }
            other => panic!("expected for, got {other:?}"),
        }
        // `for (x <- R) [k2] [x]` — an output block followed by a body.
        let e2 = parse("for (x <- R) [k2] [x]").unwrap();
        match &e2 {
            Expr::For { out_block, .. } => {
                assert_eq!(*out_block, BlockSize::Param("k2".into()));
            }
            other => panic!("expected for, got {other:?}"),
        }
    }

    #[test]
    fn error_reporting() {
        assert!(parse("for x <- R) x").is_err());
        assert!(parse("<1, 2").is_err());
        assert!(parse("1 +").is_err());
        assert!(parse("zip[n]").is_err());
        let err = parse("@#!").unwrap_err();
        assert!(err.offset <= 1);
    }

    #[test]
    fn empty_list_and_union() {
        round_trip("[] ++ [1] ++ [<1, 2>]");
    }
}
