//! A SQL subset for the Segment View and Data Point View (Section 6.1).
//!
//! The grammar covers the query classes of the paper's evaluation
//! (S-AGG, L-AGG, M-AGG, P/R):
//!
//! ```text
//! SELECT item (, item)*
//! FROM (Segment | DataPoint)
//! [WHERE predicate (AND predicate)*]
//! [GROUP BY column (, column)*]
//! [ORDER BY column [ASC | DESC]]
//! [LIMIT n]
//!
//! item      := * | column | FUNC(*) | FUNC(Value)
//!            | P50_S(*) | P99_S(*) | PCTL_S(q)  (Segment View, sketches)
//!            | COUNT_DISTINCT(Tid) | TOP_K_S(k)
//! FUNC      := COUNT|MIN|MAX|SUM|AVG            (Data Point View)
//!            | COUNT_S|MIN_S|MAX_S|SUM_S|AVG_S  (Segment View, on models)
//!            | CUBE_<FUNC>_<LEVEL>              (roll-up in time, Alg. 6)
//! predicate := Tid = n | Tid IN (n, …)
//!            | TS|StartTime|EndTime <op> ts | TS BETWEEN ts AND ts
//!            | Value <op> number
//!            | <dimension level column> = 'member'
//! ts        := integer ms | 'YYYY-MM-DD[ HH:MM[:SS]]'
//! ```
//!
//! `Value` predicates filter reconstructed data points (Data Point View
//! listings and aggregates on either view); their rewritten form also feeds
//! the block-statistics push-down so blocks that cannot contain a matching
//! value are pruned before they are fetched or any model is decoded.

use mdb_types::{MdbError, Result, Tid, TimeLevel, Timestamp};

use crate::aggregate::AggFunc;

/// The two views of Section 6.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum View {
    Segment,
    DataPoint,
}

/// A SELECT list item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    AllColumns,
    /// A plain column (Tid, TS, Value, StartTime, EndTime, or a dimension
    /// level name).
    Column(String),
    /// An aggregate; `cube` carries the time level of `CUBE_*_<LEVEL>`.
    Agg {
        func: AggFunc,
        cube: Option<TimeLevel>,
    },
    /// A sketch-answered function, resolved from the store's sketches alone
    /// (never fetching segment bodies); see `mdb_sketch` for the error
    /// bounds.
    Sketch(SketchFunc),
}

/// The sketch-answered functions (Segment View only; approximate, with the
/// error bounds exported by `mdb_sketch`).
#[derive(Debug, Clone, PartialEq)]
pub enum SketchFunc {
    /// `PCTL_S(q)` — the approximate nearest-rank `q`-percentile of every
    /// reconstructed value, `0 ≤ q ≤ 100`; `P50_S(*)` and `P99_S(*)` are
    /// sugar for `PCTL_S(50)` and `PCTL_S(99)`.
    Pctl(f64),
    /// `COUNT_DISTINCT(Tid)` — approximate number of distinct time series
    /// with at least one stored data point.
    CountDistinct,
    /// `TOP_K_S(k)` — the `k` time series with the most stored data
    /// points, heaviest first.
    TopK(usize),
}

impl SketchFunc {
    /// The canonical result column name (`P50_S(*)` parses as sugar, so it
    /// renders back as `PCTL_S(50)`).
    pub fn column_name(&self) -> String {
        match self {
            SketchFunc::Pctl(q) => format!("PCTL_S({q})"),
            SketchFunc::CountDistinct => "COUNT_DISTINCT(Tid)".into(),
            SketchFunc::TopK(k) => format!("TOP_K_S({k})"),
        }
    }
}

/// Comparison operators on time columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Whether `a <op> b` holds.
    pub(crate) fn holds<T: PartialOrd>(self, a: T, b: T) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

/// Time columns usable in WHERE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeColumn {
    /// Data Point View timestamp.
    Ts,
    StartTime,
    EndTime,
}

/// One conjunct of the WHERE clause.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `Tid = n` or `Tid IN (…)`.
    TidIn(Vec<Tid>),
    /// A comparison on a time column.
    Time {
        column: TimeColumn,
        op: CmpOp,
        value: Timestamp,
    },
    /// A comparison on the (raw, unscaled) data point value,
    /// e.g. `Value >= 2.5`.
    Value { op: CmpOp, value: f64 },
    /// Equality on a dimension level column, e.g. `Park = 'Aalborg'`.
    MemberEq { column: String, value: String },
}

/// A parsed query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub items: Vec<SelectItem>,
    pub view: View,
    pub predicates: Vec<Predicate>,
    pub group_by: Vec<String>,
    pub order_by: Option<(String, bool)>,
    pub limit: Option<usize>,
}

// ---------------------------------------------------------------- lexer --

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    Comma,
    LParen,
    RParen,
    Star,
    Eq,
    Lt,
    Le,
    Gt,
    Ge,
}

fn lex(input: &str) -> Result<Vec<Token>> {
    let mut tokens = Vec::new();
    let bytes: Vec<char> = input.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            c if c.is_whitespace() => i += 1,
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            '=' => {
                tokens.push(Token::Eq);
                i += 1;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&'=') {
                    tokens.push(Token::Le);
                    i += 2;
                } else {
                    tokens.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&'=') {
                    tokens.push(Token::Ge);
                    i += 2;
                } else {
                    tokens.push(Token::Gt);
                    i += 1;
                }
            }
            '\'' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != '\'' {
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(MdbError::Query("unterminated string literal".into()));
                }
                tokens.push(Token::Str(bytes[start..j].iter().collect()));
                i = j + 1;
            }
            c if c.is_ascii_digit()
                || (c == '-' && bytes.get(i + 1).is_some_and(|d| d.is_ascii_digit())) =>
            {
                let start = i;
                i += 1;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                // A fractional part makes it a float literal (Value
                // comparisons); otherwise it stays an exact integer.
                let fractional = bytes.get(i) == Some(&'.')
                    && bytes.get(i + 1).is_some_and(|d| d.is_ascii_digit());
                if fractional {
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                let text: String = bytes[start..i].iter().collect();
                if fractional {
                    let v = text
                        .parse::<f64>()
                        .map_err(|_| MdbError::Query(format!("invalid number {text:?}")))?;
                    tokens.push(Token::Float(v));
                } else {
                    let v = text
                        .parse::<i64>()
                        .map_err(|_| MdbError::Query(format!("invalid number {text:?}")))?;
                    tokens.push(Token::Int(v));
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                tokens.push(Token::Ident(bytes[start..i].iter().collect()));
            }
            other => return Err(MdbError::Query(format!("unexpected character {other:?}"))),
        }
    }
    Ok(tokens)
}

// --------------------------------------------------------------- parser --

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        match self.next() {
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw) => Ok(()),
            other => Err(MdbError::Query(format!("expected {kw}, found {other:?}"))),
        }
    }

    fn keyword_is(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn take_keyword(&mut self, kw: &str) -> bool {
        if self.keyword_is(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(MdbError::Query(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn int(&mut self) -> Result<i64> {
        match self.next() {
            Some(Token::Int(v)) => Ok(v),
            other => Err(MdbError::Query(format!(
                "expected integer, found {other:?}"
            ))),
        }
    }
}

/// Parses one query.
pub fn parse(input: &str) -> Result<Query> {
    let mut p = Parser {
        tokens: lex(input)?,
        pos: 0,
    };
    p.expect_keyword("SELECT")?;
    let mut items = Vec::new();
    loop {
        items.push(parse_item(&mut p)?);
        if !matches!(p.peek(), Some(Token::Comma)) {
            break;
        }
        p.next();
    }
    p.expect_keyword("FROM")?;
    let view_name = p.ident()?;
    let view = match view_name.to_ascii_uppercase().as_str() {
        "SEGMENT" => View::Segment,
        "DATAPOINT" | "DATA_POINT" => View::DataPoint,
        other => return Err(MdbError::Query(format!("unknown view {other}"))),
    };
    let mut predicates = Vec::new();
    if p.take_keyword("WHERE") {
        loop {
            predicates.push(parse_predicate(&mut p)?);
            if !p.take_keyword("AND") {
                break;
            }
        }
    }
    let mut group_by = Vec::new();
    if p.take_keyword("GROUP") {
        p.expect_keyword("BY")?;
        loop {
            group_by.push(p.ident()?);
            if !matches!(p.peek(), Some(Token::Comma)) {
                break;
            }
            p.next();
        }
    }
    let mut order_by = None;
    if p.take_keyword("ORDER") {
        p.expect_keyword("BY")?;
        let col = p.ident()?;
        let desc = if p.take_keyword("DESC") {
            true
        } else {
            p.take_keyword("ASC");
            false
        };
        order_by = Some((col, desc));
    }
    let mut limit = None;
    if p.take_keyword("LIMIT") {
        let n = p.int()?;
        if n < 0 {
            return Err(MdbError::Query("negative LIMIT".into()));
        }
        limit = Some(n as usize);
    }
    if let Some(t) = p.peek() {
        return Err(MdbError::Query(format!("trailing input at {t:?}")));
    }
    Ok(Query {
        items,
        view,
        predicates,
        group_by,
        order_by,
        limit,
    })
}

fn parse_item(p: &mut Parser) -> Result<SelectItem> {
    if matches!(p.peek(), Some(Token::Star)) {
        p.next();
        return Ok(SelectItem::AllColumns);
    }
    let name = p.ident()?;
    if matches!(p.peek(), Some(Token::LParen)) {
        p.next();
        let upper = name.to_ascii_uppercase();
        // Sketch functions with a numeric argument parse first; everything
        // else takes * or a column name.
        match upper.as_str() {
            "PCTL_S" => {
                let q = match p.next() {
                    Some(Token::Int(v)) => v as f64,
                    Some(Token::Float(v)) => v,
                    other => {
                        return Err(MdbError::Query(format!(
                            "PCTL_S needs a percentile 0..=100, found {other:?}"
                        )))
                    }
                };
                if !(0.0..=100.0).contains(&q) {
                    return Err(MdbError::Query(format!(
                        "PCTL_S percentile {q} out of range 0..=100"
                    )));
                }
                expect_rparen(p)?;
                return Ok(SelectItem::Sketch(SketchFunc::Pctl(q)));
            }
            "TOP_K_S" => {
                let k = match p.next() {
                    Some(Token::Int(v)) if v >= 1 => v as usize,
                    other => {
                        return Err(MdbError::Query(format!(
                            "TOP_K_S needs an integer k >= 1, found {other:?}"
                        )))
                    }
                };
                expect_rparen(p)?;
                return Ok(SelectItem::Sketch(SketchFunc::TopK(k)));
            }
            _ => {}
        }
        // Argument: * or a column name (ignored by aggregates, which run on
        // Value; COUNT_DISTINCT insists on Tid — its argument is meaningful).
        let arg = match p.next() {
            Some(Token::Star) => None,
            Some(Token::Ident(arg)) => Some(arg),
            other => return Err(MdbError::Query(format!("bad aggregate argument {other:?}"))),
        };
        expect_rparen(p)?;
        return match upper.as_str() {
            "P50_S" => Ok(SelectItem::Sketch(SketchFunc::Pctl(50.0))),
            "P99_S" => Ok(SelectItem::Sketch(SketchFunc::Pctl(99.0))),
            "COUNT_DISTINCT" => match arg {
                Some(arg) if !arg.eq_ignore_ascii_case("Tid") => Err(MdbError::Query(format!(
                    "COUNT_DISTINCT counts distinct Tid, not {arg}"
                ))),
                _ => Ok(SelectItem::Sketch(SketchFunc::CountDistinct)),
            },
            _ => parse_agg_name(&name),
        };
    }
    Ok(SelectItem::Column(name))
}

fn expect_rparen(p: &mut Parser) -> Result<()> {
    match p.next() {
        Some(Token::RParen) => Ok(()),
        other => Err(MdbError::Query(format!("expected ), found {other:?}"))),
    }
}

/// Resolves `SUM`, `SUM_S`, and `CUBE_SUM_HOUR` style names.
fn parse_agg_name(name: &str) -> Result<SelectItem> {
    let upper = name.to_ascii_uppercase();
    if let Some(rest) = upper.strip_prefix("CUBE_") {
        let mut parts = rest.splitn(2, '_');
        let func = parts
            .next()
            .and_then(AggFunc::parse)
            .ok_or_else(|| MdbError::Query(format!("unknown aggregate {name}")))?;
        let level = parts
            .next()
            .and_then(TimeLevel::parse)
            .ok_or_else(|| MdbError::Query(format!("unknown time level in {name}")))?;
        return Ok(SelectItem::Agg {
            func,
            cube: Some(level),
        });
    }
    let base = upper.strip_suffix("_S").unwrap_or(&upper);
    let func =
        AggFunc::parse(base).ok_or_else(|| MdbError::Query(format!("unknown function {name}")))?;
    Ok(SelectItem::Agg { func, cube: None })
}

fn parse_predicate(p: &mut Parser) -> Result<Predicate> {
    let column = p.ident()?;
    let upper = column.to_ascii_uppercase();
    match upper.as_str() {
        "TID" => match p.next() {
            Some(Token::Eq) => Ok(Predicate::TidIn(vec![p.int()? as Tid])),
            Some(Token::Ident(kw)) if kw.eq_ignore_ascii_case("IN") => {
                match p.next() {
                    Some(Token::LParen) => {}
                    other => return Err(MdbError::Query(format!("expected (, found {other:?}"))),
                }
                let mut tids = Vec::new();
                loop {
                    tids.push(p.int()? as Tid);
                    match p.next() {
                        Some(Token::Comma) => continue,
                        Some(Token::RParen) => break,
                        other => {
                            return Err(MdbError::Query(format!(
                                "expected , or ), found {other:?}"
                            )))
                        }
                    }
                }
                Ok(Predicate::TidIn(tids))
            }
            other => Err(MdbError::Query(format!(
                "expected = or IN after Tid, found {other:?}"
            ))),
        },
        "TS" | "STARTTIME" | "ENDTIME" => {
            let time_col = match upper.as_str() {
                "TS" => TimeColumn::Ts,
                "STARTTIME" => TimeColumn::StartTime,
                _ => TimeColumn::EndTime,
            };
            if p.take_keyword("BETWEEN") {
                let lo = parse_timestamp(p)?;
                p.expect_keyword("AND")?;
                let hi = parse_timestamp(p)?;
                // BETWEEN desugars into two conjuncts; fold into one
                // predicate pair by returning the first and pushing back the
                // second is awkward, so BETWEEN is encoded as Ge + a
                // synthetic And handled here:
                return Ok(Predicate::Time {
                    column: time_col,
                    op: CmpOp::Ge,
                    value: lo,
                })
                .inspect(|_ge| {
                    // Stash the second half for the caller by splicing it
                    // into the token stream as `AND <col> <= hi`.
                    p.tokens.insert(p.pos, Token::Ident("AND".into()));
                    p.tokens.insert(p.pos + 1, Token::Ident(column.clone()));
                    p.tokens.insert(p.pos + 2, Token::Le);
                    p.tokens.insert(p.pos + 3, Token::Int(hi));
                });
            }
            let op = parse_cmp_op(p)?;
            let value = parse_timestamp(p)?;
            Ok(Predicate::Time {
                column: time_col,
                op,
                value,
            })
        }
        "VALUE" => {
            let op = parse_cmp_op(p)?;
            let value = match p.next() {
                Some(Token::Int(v)) => v as f64,
                Some(Token::Float(v)) => v,
                other => return Err(MdbError::Query(format!("expected number, found {other:?}"))),
            };
            Ok(Predicate::Value { op, value })
        }
        _ => {
            // Dimension member equality.
            match p.next() {
                Some(Token::Eq) => {}
                other => {
                    return Err(MdbError::Query(format!(
                        "expected = after {column}, found {other:?}"
                    )))
                }
            }
            match p.next() {
                Some(Token::Str(value)) => Ok(Predicate::MemberEq { column, value }),
                Some(Token::Ident(value)) => Ok(Predicate::MemberEq { column, value }),
                other => Err(MdbError::Query(format!(
                    "expected member literal, found {other:?}"
                ))),
            }
        }
    }
}

/// Parses one comparison operator token.
fn parse_cmp_op(p: &mut Parser) -> Result<CmpOp> {
    match p.next() {
        Some(Token::Eq) => Ok(CmpOp::Eq),
        Some(Token::Lt) => Ok(CmpOp::Lt),
        Some(Token::Le) => Ok(CmpOp::Le),
        Some(Token::Gt) => Ok(CmpOp::Gt),
        Some(Token::Ge) => Ok(CmpOp::Ge),
        other => Err(MdbError::Query(format!(
            "expected comparison, found {other:?}"
        ))),
    }
}

fn parse_timestamp(p: &mut Parser) -> Result<Timestamp> {
    match p.next() {
        Some(Token::Int(v)) => Ok(v),
        Some(Token::Str(s)) => parse_timestamp_literal(&s),
        other => Err(MdbError::Query(format!(
            "expected timestamp, found {other:?}"
        ))),
    }
}

/// Parses `YYYY-MM-DD`, `YYYY-MM-DD HH:MM`, or `YYYY-MM-DD HH:MM:SS`.
pub fn parse_timestamp_literal(s: &str) -> Result<Timestamp> {
    let bad = || MdbError::Query(format!("invalid timestamp literal {s:?}"));
    let (date, time) = match s.split_once(' ') {
        Some((d, t)) => (d, Some(t)),
        None => (s, None),
    };
    let mut dp = date.split('-');
    let year: i64 = dp.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let month: u32 = dp.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let day: u32 = dp.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    if dp.next().is_some()
        || !(1..=12).contains(&month)
        || day < 1
        || day > mdb_types::time::days_in_month(year, month)
    {
        return Err(bad());
    }
    let (mut hour, mut minute, mut second) = (0u32, 0u32, 0u32);
    if let Some(t) = time {
        let mut tp = t.split(':');
        hour = tp.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        minute = tp.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        if let Some(sec) = tp.next() {
            second = sec.parse().map_err(|_| bad())?;
        }
        if tp.next().is_some() || hour > 23 || minute > 59 || second > 59 {
            return Err(bad());
        }
    }
    Ok(mdb_types::time::compose(mdb_types::time::Civil {
        year,
        month,
        day,
        hour,
        minute,
        second,
        millisecond: 0,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure11_query_parses() {
        let q =
            parse("SELECT Tid, SUM_S(*) FROM Segment WHERE Tid IN (1, 2, 3) GROUP BY Tid").unwrap();
        assert_eq!(q.view, View::Segment);
        assert_eq!(q.items.len(), 2);
        assert_eq!(q.items[0], SelectItem::Column("Tid".into()));
        assert_eq!(
            q.items[1],
            SelectItem::Agg {
                func: AggFunc::Sum,
                cube: None
            }
        );
        assert_eq!(q.predicates, vec![Predicate::TidIn(vec![1, 2, 3])]);
        assert_eq!(q.group_by, vec!["Tid".to_string()]);
    }

    #[test]
    fn figure12_cube_query_parses() {
        let q =
            parse("SELECT Tid, CUBE_SUM_HOUR(*) FROM Segment WHERE Tid IN (1,2,3) GROUP BY Tid")
                .unwrap();
        assert_eq!(
            q.items[1],
            SelectItem::Agg {
                func: AggFunc::Sum,
                cube: Some(TimeLevel::Hour)
            }
        );
    }

    #[test]
    fn data_point_view_aggregates() {
        let q = parse("SELECT AVG(Value) FROM DataPoint WHERE Tid = 7").unwrap();
        assert_eq!(q.view, View::DataPoint);
        assert_eq!(
            q.items[0],
            SelectItem::Agg {
                func: AggFunc::Avg,
                cube: None
            }
        );
        assert_eq!(q.predicates, vec![Predicate::TidIn(vec![7])]);
    }

    #[test]
    fn point_range_queries() {
        let q =
            parse("SELECT * FROM DataPoint WHERE Tid = 1 AND TS >= 1000 AND TS <= 2000").unwrap();
        assert_eq!(q.items, vec![SelectItem::AllColumns]);
        assert_eq!(q.predicates.len(), 3);
        let q = parse("SELECT * FROM DataPoint WHERE TS BETWEEN 1000 AND 2000").unwrap();
        assert_eq!(
            q.predicates,
            vec![
                Predicate::Time {
                    column: TimeColumn::Ts,
                    op: CmpOp::Ge,
                    value: 1000
                },
                Predicate::Time {
                    column: TimeColumn::Ts,
                    op: CmpOp::Le,
                    value: 2000
                },
            ]
        );
    }

    #[test]
    fn between_composes_with_more_conjuncts() {
        let q = parse("SELECT * FROM DataPoint WHERE TS BETWEEN 10 AND 20 AND Tid = 3").unwrap();
        assert_eq!(q.predicates.len(), 3);
        assert_eq!(q.predicates[2], Predicate::TidIn(vec![3]));
    }

    #[test]
    fn member_predicates_and_grouping() {
        let q = parse(
            "SELECT Category, SUM_S(*) FROM Segment WHERE Category = 'ProductionMWh' GROUP BY Category",
        )
        .unwrap();
        assert_eq!(
            q.predicates,
            vec![Predicate::MemberEq {
                column: "Category".into(),
                value: "ProductionMWh".into()
            }]
        );
        assert_eq!(q.group_by, vec!["Category".to_string()]);
    }

    #[test]
    fn timestamp_literals() {
        assert_eq!(parse_timestamp_literal("1970-01-01").unwrap(), 0);
        assert_eq!(parse_timestamp_literal("1970-01-02").unwrap(), 86_400_000);
        assert_eq!(
            parse_timestamp_literal("1970-01-01 01:02:03").unwrap(),
            3_723_000
        );
        assert_eq!(
            parse_timestamp_literal("1970-01-01 01:02").unwrap(),
            3_720_000
        );
        assert!(parse_timestamp_literal("1970-13-01").is_err());
        assert!(parse_timestamp_literal("1970-02-30").is_err());
        assert!(parse_timestamp_literal("junk").is_err());
        let q = parse("SELECT * FROM DataPoint WHERE TS >= '1970-01-02'").unwrap();
        assert_eq!(
            q.predicates,
            vec![Predicate::Time {
                column: TimeColumn::Ts,
                op: CmpOp::Ge,
                value: 86_400_000
            }]
        );
    }

    #[test]
    fn value_predicates() {
        let q = parse("SELECT * FROM DataPoint WHERE Value >= 2.5 AND Value < 10").unwrap();
        assert_eq!(
            q.predicates,
            vec![
                Predicate::Value {
                    op: CmpOp::Ge,
                    value: 2.5
                },
                Predicate::Value {
                    op: CmpOp::Lt,
                    value: 10.0
                },
            ]
        );
        let q = parse("SELECT SUM_S(*) FROM Segment WHERE Value = -3.25").unwrap();
        assert_eq!(
            q.predicates,
            vec![Predicate::Value {
                op: CmpOp::Eq,
                value: -3.25
            }]
        );
        assert!(parse("SELECT * FROM DataPoint WHERE Value LIKE 3").is_err());
        assert!(parse("SELECT * FROM DataPoint WHERE Value > 'high'").is_err());
    }

    #[test]
    fn order_and_limit() {
        let q = parse("SELECT Tid, SUM_S(*) FROM Segment GROUP BY Tid ORDER BY Tid DESC LIMIT 5")
            .unwrap();
        assert_eq!(q.order_by, Some(("Tid".into(), true)));
        assert_eq!(q.limit, Some(5));
        let q = parse("SELECT Tid FROM Segment ORDER BY Tid ASC").unwrap();
        assert_eq!(q.order_by, Some(("Tid".into(), false)));
    }

    #[test]
    fn rejects_malformed_queries() {
        assert!(parse("").is_err());
        assert!(parse("SELECT FROM Segment").is_err());
        assert!(parse("SELECT * FROM Unknown").is_err());
        assert!(parse("SELECT * FROM Segment WHERE Tid LIKE 3").is_err());
        assert!(parse("SELECT MEDIAN(*) FROM Segment").is_err());
        assert!(parse("SELECT CUBE_SUM_FORTNIGHT(*) FROM Segment").is_err());
        assert!(parse("SELECT * FROM Segment LIMIT -1").is_err());
        assert!(parse("SELECT * FROM Segment trailing garbage '").is_err());
        assert!(parse("SELECT * FROM DataPoint WHERE TS >= 'not a date'").is_err());
    }

    #[test]
    fn sketch_function_forms() {
        for (sql, func) in [
            ("P50_S(*)", SketchFunc::Pctl(50.0)),
            ("P99_S(*)", SketchFunc::Pctl(99.0)),
            ("p50_s(Value)", SketchFunc::Pctl(50.0)),
            ("PCTL_S(50)", SketchFunc::Pctl(50.0)),
            ("PCTL_S(99.9)", SketchFunc::Pctl(99.9)),
            ("PCTL_S(0)", SketchFunc::Pctl(0.0)),
            ("COUNT_DISTINCT(Tid)", SketchFunc::CountDistinct),
            ("count_distinct(*)", SketchFunc::CountDistinct),
            ("TOP_K_S(3)", SketchFunc::TopK(3)),
            ("top_k_s(1)", SketchFunc::TopK(1)),
        ] {
            let q = parse(&format!("SELECT {sql} FROM Segment")).unwrap();
            assert_eq!(q.items[0], SelectItem::Sketch(func), "{sql}");
        }
        assert_eq!(SketchFunc::Pctl(50.0).column_name(), "PCTL_S(50)");
        assert_eq!(SketchFunc::Pctl(99.9).column_name(), "PCTL_S(99.9)");
        assert_eq!(
            SketchFunc::CountDistinct.column_name(),
            "COUNT_DISTINCT(Tid)"
        );
        assert_eq!(SketchFunc::TopK(7).column_name(), "TOP_K_S(7)");
    }

    #[test]
    fn rejects_malformed_sketch_functions() {
        assert!(parse("SELECT PCTL_S(*) FROM Segment").is_err());
        assert!(parse("SELECT PCTL_S(101) FROM Segment").is_err());
        assert!(parse("SELECT PCTL_S(-1) FROM Segment").is_err());
        assert!(parse("SELECT PCTL_S(50 FROM Segment").is_err());
        assert!(parse("SELECT TOP_K_S(0) FROM Segment").is_err());
        assert!(parse("SELECT TOP_K_S(*) FROM Segment").is_err());
        assert!(parse("SELECT TOP_K_S(2.5) FROM Segment").is_err());
        assert!(parse("SELECT COUNT_DISTINCT(Value) FROM Segment").is_err());
    }

    #[test]
    fn all_agg_suffix_forms() {
        for (name, func) in [
            ("COUNT_S", AggFunc::Count),
            ("MIN_S", AggFunc::Min),
            ("MAX_S", AggFunc::Max),
            ("SUM_S", AggFunc::Sum),
            ("AVG_S", AggFunc::Avg),
        ] {
            let q = parse(&format!("SELECT {name}(*) FROM Segment")).unwrap();
            assert_eq!(q.items[0], SelectItem::Agg { func, cube: None });
        }
        for level in ["YEAR", "MONTH", "DAY", "HOUR", "MINUTE", "SECOND"] {
            let q = parse(&format!("SELECT CUBE_AVG_{level}(*) FROM Segment")).unwrap();
            assert!(matches!(
                q.items[0],
                SelectItem::Agg {
                    func: AggFunc::Avg,
                    cube: Some(_)
                }
            ));
        }
    }

    /// Queries shaped like a dashboard's panels: narrow, cube, sketch,
    /// broad, value-filter and point queries.
    const DASHBOARD: [&str; 8] = [
        "SELECT Tid, SUM_S(*) FROM Segment WHERE TS >= 1000 AND TS <= 2000 GROUP BY Tid ORDER BY Tid",
        "SELECT Tid, CUBE_SUM_HOUR(*) FROM Segment WHERE Entity = 'entity1' AND TS >= 0 AND TS <= 3599999 GROUP BY Tid ORDER BY Tid",
        "SELECT Entity, CUBE_AVG_DAY(*) FROM Segment WHERE Park = 'park0' GROUP BY Entity ORDER BY Entity",
        "SELECT COUNT_DISTINCT(Tid) FROM Segment",
        "SELECT PCTL_S(73) FROM Segment",
        "SELECT Park, AVG_S(*) FROM Segment WHERE EndTime <= 86400000 GROUP BY Park ORDER BY Park",
        "SELECT Tid, COUNT_S(*), AVG_S(*) FROM Segment WHERE Value > 101.5 AND TS <= 9000 GROUP BY Tid ORDER BY Tid",
        "SELECT Tid, TS, Value FROM DataPoint WHERE Tid IN (1, 2) AND TS >= 60000 AND TS <= 72000",
    ];

    /// Fragments spliced into mutated queries, each a token the grammar
    /// gives meaning to or a boundary it must reject cleanly.
    const FRAGMENTS: [&str; 16] = [
        "(", ")", "'", ",", "*", "-", ".", " ", "IN", "AND", "GROUP BY", "ORDER BY", "WHERE",
        "1e999", "9999999", "CUBE_",
    ];

    proptest::proptest! {
        // Arbitrary bytes, read as lossy UTF-8 and mapped onto the
        // grammar's own characters: `parse` returns a query or an error,
        // and never panics.
        #[test]
        fn parse_never_panics_on_arbitrary_bytes(
            bytes in proptest::collection::vec(proptest::num::u8::ANY, 0..160),
        ) {
            let _ = parse(&String::from_utf8_lossy(&bytes));
            const ALPHABET: &[u8] = b"SELECT FROM WHERE GROUP BY ORDER IN AND Tid TS Value \
                Segment DataPoint SUM_S(*) CUBE_AVG_DAY PCTL_S COUNT_DISTINCT \
                0123456789.,-'()<>=*";
            let mapped: String = bytes
                .iter()
                .map(|&b| char::from(ALPHABET[usize::from(b) % ALPHABET.len()]))
                .collect();
            let _ = parse(&mapped);
        }

        // Dashboard-shaped queries with bytes flipped, truncated at any
        // length, extended, or with a fragment spliced in: still a query
        // or an error, never a panic.
        #[test]
        fn parse_never_panics_on_mutated_dashboard_queries(
            query in proptest::num::usize::ANY,
            damage in 0usize..4,
            edits in proptest::collection::vec((proptest::num::usize::ANY, proptest::num::u8::ANY), 1..6),
        ) {
            let mut bytes = DASHBOARD[query % DASHBOARD.len()].as_bytes().to_vec();
            for &(at, byte) in &edits {
                let at = at % (bytes.len() + 1);
                match damage {
                    0 => {
                        let len = bytes.len();
                        bytes[at % len] ^= byte.max(1);
                    }
                    1 => bytes.truncate(at),
                    2 => bytes.push(byte),
                    _ => {
                        let fragment = FRAGMENTS[usize::from(byte) % FRAGMENTS.len()];
                        bytes.splice(at..at, fragment.bytes());
                    }
                }
            }
            let _ = parse(&String::from_utf8_lossy(&bytes));
        }
    }
}
