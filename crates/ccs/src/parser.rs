//! A small recursive-descent parser for star expressions.
//!
//! Grammar (standard regular-expression precedence: `*` binds tightest, then
//! `.`, then `+`):
//!
//! ```text
//! expr    := term   ('+' term)*
//! term    := factor ('.' factor)*
//! factor  := atom '*'*
//! atom    := '0' | IDENT | '(' expr ')'
//! IDENT   := [A-Za-z_][A-Za-z0-9_]*       (except the literal "0")
//! ```
//!
//! The parser and every later pass over the tree (the representative
//! construction, display, drop) recurse once per tree level, so [`parse`]
//! rejects trees deeper than `MAX_DEPTH`.  Each `+`, `.` and `*` node and
//! each parenthesis pair counts one level: a left-deep chain `a+a+…+a` of
//! `n` terms is `n − 1` deep.

use std::error::Error;
use std::fmt;

use crate::StarExpr;

/// Deepest expression [`parse`] accepts, in the levels the module docs
/// count.  It keeps the parse and the construction inside a 2 MiB thread
/// stack, the size of a server connection thread.
const MAX_DEPTH: usize = 256;

/// Errors produced while parsing a star expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExprError {
    /// Byte offset of the problem in the input.
    pub position: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at offset {}: {}",
            self.position, self.message
        )
    }
}

impl Error for ExprError {}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    /// Parentheses open around the current position.
    open: usize,
}

/// A parsed subtree and its depth.
type Parsed = (StarExpr, usize);

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            input: input.as_bytes(),
            pos: 0,
            open: 0,
        }
    }

    fn error(&self, message: &str) -> ExprError {
        ExprError {
            position: self.pos,
            message: message.to_owned(),
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.input.len() && self.input[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.input.get(self.pos).copied()
    }

    /// One level above `depth`, or an error past [`MAX_DEPTH`].
    fn deeper(&self, depth: usize) -> Result<usize, ExprError> {
        if depth < MAX_DEPTH {
            Ok(depth + 1)
        } else {
            Err(self.error(&format!("expression nested deeper than {MAX_DEPTH} levels")))
        }
    }

    fn expr(&mut self) -> Result<Parsed, ExprError> {
        let (mut left, mut depth) = self.term()?;
        while self.peek() == Some(b'+') {
            self.pos += 1;
            let (right, right_depth) = self.term()?;
            depth = self.deeper(depth.max(right_depth))?;
            left = left.union(right);
        }
        Ok((left, depth))
    }

    fn term(&mut self) -> Result<Parsed, ExprError> {
        let (mut left, mut depth) = self.factor()?;
        // Juxtaposition of atoms is not allowed; concatenation needs an
        // explicit dot, matching the paper's `·`.
        while self.peek() == Some(b'.') {
            self.pos += 1;
            let (right, right_depth) = self.factor()?;
            depth = self.deeper(depth.max(right_depth))?;
            left = left.concat(right);
        }
        Ok((left, depth))
    }

    fn factor(&mut self) -> Result<Parsed, ExprError> {
        let (mut atom, mut depth) = self.atom()?;
        while self.peek() == Some(b'*') {
            self.pos += 1;
            depth = self.deeper(depth)?;
            atom = atom.star();
        }
        Ok((atom, depth))
    }

    fn atom(&mut self) -> Result<Parsed, ExprError> {
        match self.peek() {
            Some(b'(') => {
                // The parser recurses once per open parenthesis, so the
                // bound applies before the inner depth is known.
                self.open = self.deeper(self.open)?;
                self.pos += 1;
                let (inner, depth) = self.expr()?;
                if self.peek() != Some(b')') {
                    return Err(self.error("expected ')'"));
                }
                self.pos += 1;
                self.open -= 1;
                Ok((inner, self.deeper(depth)?))
            }
            Some(b'0') => {
                self.pos += 1;
                Ok((StarExpr::Empty, 0))
            }
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => {
                let start = self.pos;
                while self.pos < self.input.len()
                    && (self.input[self.pos].is_ascii_alphanumeric()
                        || self.input[self.pos] == b'_')
                {
                    self.pos += 1;
                }
                let name = std::str::from_utf8(&self.input[start..self.pos])
                    .expect("ASCII identifier is valid UTF-8");
                Ok((StarExpr::action(name), 0))
            }
            Some(_) => Err(self.error("expected '0', an action name, or '('")),
            None => Err(self.error("unexpected end of input")),
        }
    }
}

/// Parses a star expression.
///
/// # Errors
///
/// Returns [`ExprError`] describing the first syntax error, or a tree
/// deeper than 256 levels (each `+`, `.` and `*` node and each
/// parenthesis pair is one level).
pub fn parse(input: &str) -> Result<StarExpr, ExprError> {
    let mut p = Parser::new(input);
    let (e, _depth) = p.expr()?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.error("trailing input after expression"));
    }
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precedence_star_binds_tightest() {
        assert_eq!(
            parse("a.b*").unwrap(),
            StarExpr::action("a").concat(StarExpr::action("b").star())
        );
        assert_eq!(
            parse("(a.b)*").unwrap(),
            StarExpr::action("a").concat(StarExpr::action("b")).star()
        );
    }

    #[test]
    fn precedence_concat_over_union() {
        assert_eq!(
            parse("a.b + c").unwrap(),
            StarExpr::action("a")
                .concat(StarExpr::action("b"))
                .union(StarExpr::action("c"))
        );
    }

    #[test]
    fn union_and_concat_are_left_associative() {
        assert_eq!(
            parse("a + b + c").unwrap(),
            StarExpr::action("a")
                .union(StarExpr::action("b"))
                .union(StarExpr::action("c"))
        );
        assert_eq!(
            parse("a.b.c").unwrap(),
            StarExpr::action("a")
                .concat(StarExpr::action("b"))
                .concat(StarExpr::action("c"))
        );
    }

    #[test]
    fn empty_and_identifiers() {
        assert_eq!(parse("0").unwrap(), StarExpr::Empty);
        assert_eq!(
            parse("coin_inserted").unwrap(),
            StarExpr::action("coin_inserted")
        );
        assert_eq!(parse("  a  ").unwrap(), StarExpr::action("a"));
    }

    #[test]
    fn double_star_parses() {
        assert_eq!(parse("a**").unwrap(), StarExpr::action("a").star().star());
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for bad in [
            "", "+", "a +", "(a", "a)", "a..b", "a b", "*a", "a.+b", "1abc",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    /// Deep parentheses and long flat chains are refused with an error,
    /// not a stack overflow, while the deepest accepted trees still parse.
    #[test]
    fn deep_nesting_is_rejected_not_fatal() {
        let chain = |op: &str, terms: usize| vec!["a"; terms].join(op);
        let nested = |depth: usize| format!("{}0{}", "(".repeat(depth), ")".repeat(depth));
        for bad in [
            nested(100_000),
            chain("+", 100_000),
            chain(".", 100_000),
            format!("a{}", "*".repeat(100_000)),
            nested(MAX_DEPTH + 1),
            chain("+", MAX_DEPTH + 2),
        ] {
            let err = parse(&bad).expect_err("too deep to accept");
            assert!(err.message.contains("nested deeper"), "{err}");
        }
        for good in [
            nested(MAX_DEPTH),
            chain("+", MAX_DEPTH + 1),
            chain(".", MAX_DEPTH + 1),
        ] {
            assert!(parse(&good).is_ok());
        }
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse("a + )").unwrap_err();
        assert_eq!(err.position, 4);
        assert!(err.to_string().contains("offset 4"));
    }
}
