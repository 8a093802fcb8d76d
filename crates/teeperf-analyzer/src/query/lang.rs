//! Query-language tokenizer and parser.

use std::error::Error;
use std::fmt;

/// Errors from parsing or executing a query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The query text is malformed.
    Parse(String),
    /// A referenced column does not exist.
    UnknownColumn(String),
    /// An operation was applied to a column of the wrong type.
    TypeMismatch(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse(m) => write!(f, "query parse error: {m}"),
            QueryError::UnknownColumn(c) => write!(f, "unknown column `{c}`"),
            QueryError::TypeMismatch(m) => write!(f, "type mismatch: {m}"),
        }
    }
}

impl Error for QueryError {}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// substring test on string columns
    Contains,
}

/// A literal in a predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
}

/// A predicate tree. `And` binds tighter than `Or`.
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    /// `column <op> literal`
    Cmp {
        /// Column name.
        column: String,
        /// Operator.
        op: CmpOp,
        /// Right-hand literal.
        value: Literal,
    },
    /// Conjunction.
    And(Box<Pred>, Box<Pred>),
    /// Disjunction.
    Or(Box<Pred>, Box<Pred>),
}

/// Aggregation functions for `group … agg …`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFn {
    /// Row count (takes no column).
    Count,
    /// Sum of a numeric column.
    Sum,
    /// Arithmetic mean of a numeric column.
    Mean,
    /// Minimum of a numeric column.
    Min,
    /// Maximum of a numeric column.
    Max,
}

/// One aggregation: `fn(column) as name`.
#[derive(Debug, Clone, PartialEq)]
pub struct Agg {
    /// Function.
    pub func: AggFn,
    /// Input column (`None` only for `count()`).
    pub column: Option<String>,
    /// Output column name.
    pub output: String,
}

/// Ordering clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Sort {
    /// Sort column.
    pub column: String,
    /// Descending order.
    pub descending: bool,
}

/// A parsed query.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// `select cols [where …] [sort …] [limit n]`
    Select {
        /// Selected columns; empty means `*`.
        columns: Vec<String>,
        /// Optional predicate.
        predicate: Option<Pred>,
        /// Optional ordering.
        sort: Option<Sort>,
        /// Optional row limit.
        limit: Option<usize>,
    },
    /// `group keys agg aggs [sort …] [limit n]`
    Group {
        /// Grouping key columns.
        keys: Vec<String>,
        /// Aggregations.
        aggs: Vec<Agg>,
        /// Optional ordering (over the output frame).
        sort: Option<Sort>,
        /// Optional row limit.
        limit: Option<usize>,
    },
}

impl Pred {
    fn columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Pred::Cmp { column, .. } => out.push(column),
            Pred::And(a, b) | Pred::Or(a, b) => {
                a.columns(out);
                b.columns(out);
            }
        }
    }
}

impl Query {
    /// Every column name the query references: selected, filtered on,
    /// grouped by, aggregated over or sorted by (a sort may also name an
    /// aggregation's output). Literals are values, never columns.
    pub fn columns(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        let sort = match self {
            Query::Select {
                columns,
                predicate,
                sort,
                ..
            } => {
                out.extend(columns.iter().map(String::as_str));
                if let Some(p) = predicate {
                    p.columns(&mut out);
                }
                sort
            }
            Query::Group {
                keys, aggs, sort, ..
            } => {
                out.extend(keys.iter().map(String::as_str));
                out.extend(aggs.iter().filter_map(|a| a.column.as_deref()));
                sort
            }
        };
        out.extend(sort.iter().map(|s| s.column.as_str()));
        out
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    Op(CmpOp),
    Comma,
    LParen,
    RParen,
    Star,
}

fn tokenize(q: &str) -> Result<Vec<Tok>, QueryError> {
    let mut out = Vec::new();
    let b = q.as_bytes();
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        match c {
            b' ' | b'\t' | b'\n' | b'\r' => i += 1,
            b',' => {
                out.push(Tok::Comma);
                i += 1;
            }
            b'(' => {
                out.push(Tok::LParen);
                i += 1;
            }
            b')' => {
                out.push(Tok::RParen);
                i += 1;
            }
            b'*' => {
                out.push(Tok::Star);
                i += 1;
            }
            b'=' if b.get(i + 1) == Some(&b'=') => {
                out.push(Tok::Op(CmpOp::Eq));
                i += 2;
            }
            b'!' if b.get(i + 1) == Some(&b'=') => {
                out.push(Tok::Op(CmpOp::Ne));
                i += 2;
            }
            b'<' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push(Tok::Op(CmpOp::Le));
                    i += 2;
                } else {
                    out.push(Tok::Op(CmpOp::Lt));
                    i += 1;
                }
            }
            b'>' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push(Tok::Op(CmpOp::Ge));
                    i += 2;
                } else {
                    out.push(Tok::Op(CmpOp::Gt));
                    i += 1;
                }
            }
            b'"' => {
                let start = i + 1;
                let mut j = start;
                while j < b.len() && b[j] != b'"' {
                    j += 1;
                }
                if j == b.len() {
                    return Err(QueryError::Parse("unterminated string".into()));
                }
                out.push(Tok::Str(q[start..j].to_string()));
                i = j + 1;
            }
            b'0'..=b'9' | b'-' => {
                let start = i;
                i += 1;
                let mut is_float = false;
                while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'.') {
                    if b[i] == b'.' {
                        is_float = true;
                    }
                    i += 1;
                }
                let text = &q[start..i];
                if is_float {
                    out.push(Tok::Float(
                        text.parse()
                            .map_err(|_| QueryError::Parse(format!("bad float `{text}`")))?,
                    ));
                } else {
                    out.push(Tok::Int(text.parse().map_err(|_| {
                        QueryError::Parse(format!("bad integer `{text}`"))
                    })?));
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                out.push(Tok::Ident(q[start..i].to_string()));
            }
            other => {
                return Err(QueryError::Parse(format!(
                    "unexpected character `{}`",
                    other as char
                )))
            }
        }
    }
    Ok(out)
}

struct P {
    toks: Vec<Tok>,
    pos: usize,
}

impl P {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Ident(s)) if s == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, QueryError> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(QueryError::Parse(format!(
                "expected {what}, found {other:?}"
            ))),
        }
    }

    fn ident_list(&mut self) -> Result<Vec<String>, QueryError> {
        let mut out = vec![self.ident("column name")?];
        while matches!(self.peek(), Some(Tok::Comma)) {
            self.bump();
            out.push(self.ident("column name")?);
        }
        Ok(out)
    }

    fn pred(&mut self) -> Result<Pred, QueryError> {
        let mut lhs = self.pred_and()?;
        while self.keyword("or") {
            let rhs = self.pred_and()?;
            lhs = Pred::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn pred_and(&mut self) -> Result<Pred, QueryError> {
        let mut lhs = self.pred_cmp()?;
        while self.keyword("and") {
            let rhs = self.pred_cmp()?;
            lhs = Pred::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn pred_cmp(&mut self) -> Result<Pred, QueryError> {
        let column = self.ident("column name in predicate")?;
        let op = match self.bump() {
            Some(Tok::Op(op)) => op,
            Some(Tok::Ident(kw)) if kw == "contains" => CmpOp::Contains,
            other => {
                return Err(QueryError::Parse(format!(
                    "expected comparison operator, found {other:?}"
                )))
            }
        };
        let value = match self.bump() {
            Some(Tok::Int(v)) => Literal::Int(v),
            Some(Tok::Float(v)) => Literal::Float(v),
            Some(Tok::Str(s)) => Literal::Str(s),
            other => {
                return Err(QueryError::Parse(format!(
                    "expected literal, found {other:?}"
                )))
            }
        };
        Ok(Pred::Cmp { column, op, value })
    }

    fn sort_clause(&mut self) -> Result<Option<Sort>, QueryError> {
        if !self.keyword("sort") {
            return Ok(None);
        }
        let column = self.ident("sort column")?;
        let descending = if self.keyword("desc") {
            true
        } else {
            // optional `asc`
            self.keyword("asc");
            false
        };
        Ok(Some(Sort { column, descending }))
    }

    fn limit_clause(&mut self) -> Result<Option<usize>, QueryError> {
        if !self.keyword("limit") {
            return Ok(None);
        }
        match self.bump() {
            Some(Tok::Int(n)) if n >= 0 => Ok(Some(n as usize)),
            other => Err(QueryError::Parse(format!(
                "expected nonnegative limit, found {other:?}"
            ))),
        }
    }

    fn agg(&mut self) -> Result<Agg, QueryError> {
        let fname = self.ident("aggregation function")?;
        let func = match fname.as_str() {
            "count" => AggFn::Count,
            "sum" => AggFn::Sum,
            "mean" => AggFn::Mean,
            "min" => AggFn::Min,
            "max" => AggFn::Max,
            other => return Err(QueryError::Parse(format!("unknown aggregation `{other}`"))),
        };
        if !matches!(self.bump(), Some(Tok::LParen)) {
            return Err(QueryError::Parse(format!("expected `(` after `{fname}`")));
        }
        let column = if matches!(self.peek(), Some(Tok::RParen)) {
            None
        } else {
            Some(self.ident("aggregation column")?)
        };
        if !matches!(self.bump(), Some(Tok::RParen)) {
            return Err(QueryError::Parse("expected `)` after aggregation".into()));
        }
        if func != AggFn::Count && column.is_none() {
            return Err(QueryError::Parse(format!(
                "`{fname}` requires a column argument"
            )));
        }
        let output = if self.keyword("as") {
            self.ident("output name")?
        } else {
            match &column {
                Some(c) => format!("{fname}_{c}"),
                None => fname.clone(),
            }
        };
        Ok(Agg {
            func,
            column,
            output,
        })
    }
}

/// Parse a query string.
///
/// # Errors
/// Returns [`QueryError::Parse`] on malformed input.
pub fn parse_query(q: &str) -> Result<Query, QueryError> {
    let mut p = P {
        toks: tokenize(q)?,
        pos: 0,
    };
    let query = if p.keyword("select") {
        let columns = if matches!(p.peek(), Some(Tok::Star)) {
            p.bump();
            Vec::new()
        } else {
            p.ident_list()?
        };
        let predicate = if p.keyword("where") {
            Some(p.pred()?)
        } else {
            None
        };
        let sort = p.sort_clause()?;
        let limit = p.limit_clause()?;
        Query::Select {
            columns,
            predicate,
            sort,
            limit,
        }
    } else if p.keyword("group") {
        let keys = p.ident_list()?;
        if !p.keyword("agg") {
            return Err(QueryError::Parse("expected `agg` after group keys".into()));
        }
        let mut aggs = vec![p.agg()?];
        while matches!(p.peek(), Some(Tok::Comma)) {
            p.bump();
            aggs.push(p.agg()?);
        }
        let sort = p.sort_clause()?;
        let limit = p.limit_clause()?;
        Query::Group {
            keys,
            aggs,
            sort,
            limit,
        }
    } else {
        return Err(QueryError::Parse(
            "query must start with `select` or `group`".into(),
        ));
    };
    if p.pos != p.toks.len() {
        return Err(QueryError::Parse(format!(
            "trailing tokens after query: {:?}",
            &p.toks[p.pos..]
        )));
    }
    Ok(query)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_select_star() {
        let q = parse_query("select *").unwrap();
        assert_eq!(
            q,
            Query::Select {
                columns: vec![],
                predicate: None,
                sort: None,
                limit: None
            }
        );
    }

    #[test]
    fn parses_full_select() {
        let q = parse_query(
            r#"select method, excl where excl > 100 and method contains "rock" or tid == 2 sort excl desc limit 5"#,
        )
        .unwrap();
        let Query::Select {
            columns,
            predicate,
            sort,
            limit,
        } = q
        else {
            panic!()
        };
        assert_eq!(columns, vec!["method", "excl"]);
        assert_eq!(limit, Some(5));
        assert_eq!(
            sort,
            Some(Sort {
                column: "excl".into(),
                descending: true
            })
        );
        // and binds tighter than or: Or(And(>, contains), ==)
        let Some(Pred::Or(lhs, rhs)) = predicate else {
            panic!("expected top-level or")
        };
        assert!(matches!(*lhs, Pred::And(..)));
        assert!(matches!(*rhs, Pred::Cmp { op: CmpOp::Eq, .. }));
    }

    #[test]
    fn parses_group_with_aggs() {
        let q = parse_query("group tid, method agg count() as n, sum(excl) sort n desc").unwrap();
        let Query::Group {
            keys, aggs, sort, ..
        } = q
        else {
            panic!()
        };
        assert_eq!(keys, vec!["tid", "method"]);
        assert_eq!(aggs.len(), 2);
        assert_eq!(aggs[0].func, AggFn::Count);
        assert_eq!(aggs[0].output, "n");
        assert_eq!(aggs[1].func, AggFn::Sum);
        assert_eq!(aggs[1].output, "sum_excl");
        assert!(sort.is_some());
    }

    #[test]
    fn columns_are_the_names_a_query_references_never_its_literals() {
        let q = parse_query(
            r#"select method, calls where method == "tid" and calls > 2 or excl < 9 sort incl"#,
        )
        .unwrap();
        assert_eq!(
            q.columns(),
            ["method", "calls", "method", "calls", "excl", "incl"]
        );
        let q =
            parse_query("group tid, method agg count() as n, sum(counter) as kind sort n").unwrap();
        assert_eq!(q.columns(), ["tid", "method", "counter", "n"]);
        assert!(parse_query("select *").unwrap().columns().is_empty());
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse_query("").is_err());
        assert!(parse_query("frobnicate x").is_err());
        assert!(parse_query("select method where").is_err());
        assert!(parse_query("select method where excl >").is_err());
        assert!(parse_query("select method limit -3").is_err());
        assert!(parse_query("group tid agg sum()").is_err());
        assert!(parse_query("group tid agg frob(x)").is_err());
        assert!(parse_query("select * extra").is_err());
        assert!(parse_query(r#"select * where a == "unterminated"#).is_err());
    }

    #[test]
    fn negative_and_float_literals() {
        let q = parse_query("select * where x >= -2 and y < 1.5").unwrap();
        let Query::Select {
            predicate: Some(Pred::And(l, r)),
            ..
        } = q
        else {
            panic!()
        };
        assert!(matches!(
            *l,
            Pred::Cmp {
                value: Literal::Int(-2),
                ..
            }
        ));
        assert!(matches!(
            *r,
            Pred::Cmp {
                value: Literal::Float(_),
                ..
            }
        ));
    }
}
