//! Recursive-descent parser for both program kinds.

use crate::ast::{
    ArchProgram, BinOp, Expr, FeatureDecl, InputDecl, InputType, LayerSpec, StateProgram,
};
use crate::error::DslError;
use crate::lexer::lex;
use crate::token::{Keyword, Token, TokenKind};

/// Deepest expression a program may contain. Depth counts every
/// parenthesis, unary minus, call and `+ - * /` operator between the
/// expression's root and its deepest leaf, so it bounds both the parser's
/// recursion and the tree that checking, evaluation and dropping walk
/// recursively. The seeds and mock generations reach depth 7; nested
/// calls, the costliest form, fit a 1 MiB stack at this depth even in an
/// unoptimized build, and worker threads have 2 MiB.
pub const MAX_EXPR_DEPTH: usize = 64;

/// Parses a state program (`state <name> { … }`).
pub fn parse_state(source: &str) -> Result<StateProgram, DslError> {
    let mut p = Parser::new(lex(source)?);
    p.expect_keyword(Keyword::State)?;
    let name = p.expect_ident("program name")?;
    p.expect(TokenKind::LBrace)?;
    let mut inputs = Vec::new();
    let mut features = Vec::new();
    loop {
        match p.peek().clone() {
            TokenKind::Keyword(Keyword::Input) => {
                p.advance();
                let name = p.expect_ident("input name")?;
                p.expect(TokenKind::Colon)?;
                let ty = p.parse_input_type()?;
                p.expect(TokenKind::Semi)?;
                inputs.push(InputDecl { name, ty });
            }
            TokenKind::Keyword(Keyword::Feature) => {
                p.advance();
                let name = p.expect_ident("feature name")?;
                p.expect(TokenKind::Eq)?;
                let (expr, _depth) = p.parse_expr()?;
                p.expect(TokenKind::Semi)?;
                features.push(FeatureDecl { name, expr });
            }
            TokenKind::RBrace => {
                p.advance();
                break;
            }
            other => {
                return Err(p.err(format!(
                    "expected `input`, `feature` or `}}`, found {other}"
                )))
            }
        }
    }
    p.expect(TokenKind::Eof)?;
    Ok(StateProgram {
        name,
        inputs,
        features,
    })
}

/// Parses an architecture program (`network <name> { … }`).
pub fn parse_arch(source: &str) -> Result<ArchProgram, DslError> {
    let mut p = Parser::new(lex(source)?);
    p.expect_keyword(Keyword::Network)?;
    let name = p.expect_ident("program name")?;
    p.expect(TokenKind::LBrace)?;
    let mut temporal = None;
    let mut scalar = None;
    let mut hidden = Vec::new();
    let mut shared_heads = None;
    loop {
        match p.peek().clone() {
            TokenKind::Keyword(Keyword::Temporal) => {
                p.advance();
                let spec = p.parse_layer_spec()?;
                p.expect(TokenKind::Semi)?;
                if temporal.replace(spec).is_some() {
                    return Err(DslError::Duplicate {
                        name: "temporal".into(),
                    });
                }
            }
            // `scalar` is also the type keyword; in arch context it is a
            // section header.
            TokenKind::Keyword(Keyword::Scalar) => {
                p.advance();
                let spec = p.parse_layer_spec()?;
                p.expect(TokenKind::Semi)?;
                if scalar.replace(spec).is_some() {
                    return Err(DslError::Duplicate {
                        name: "scalar".into(),
                    });
                }
            }
            TokenKind::Keyword(Keyword::Hidden) => {
                p.advance();
                let spec = p.parse_layer_spec()?;
                p.expect(TokenKind::Semi)?;
                hidden.push(spec);
            }
            TokenKind::Keyword(Keyword::Heads) => {
                p.advance();
                let mode = match p.peek() {
                    TokenKind::Keyword(Keyword::Separate) => false,
                    TokenKind::Keyword(Keyword::Shared) => true,
                    other => {
                        return Err(p.err(format!("expected `separate` or `shared`, found {other}")))
                    }
                };
                p.advance();
                p.expect(TokenKind::Semi)?;
                if shared_heads.replace(mode).is_some() {
                    return Err(DslError::Duplicate {
                        name: "heads".into(),
                    });
                }
            }
            TokenKind::RBrace => {
                p.advance();
                break;
            }
            other => {
                return Err(p.err(format!(
                    "expected `temporal`, `scalar`, `hidden`, `heads` or `}}`, found {other}"
                )))
            }
        }
    }
    p.expect(TokenKind::Eof)?;
    Ok(ArchProgram {
        name,
        temporal: temporal.ok_or(DslError::MissingSection {
            section: "temporal",
        })?,
        scalar: scalar.ok_or(DslError::MissingSection { section: "scalar" })?,
        hidden,
        shared_heads: shared_heads.ok_or(DslError::MissingSection { section: "heads" })?,
    })
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Parentheses, unary minuses and calls open around the current token.
    nesting: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Self {
            tokens,
            pos: 0,
            nesting: 0,
        }
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn line(&self) -> usize {
        self.tokens[self.pos].line
    }

    fn advance(&mut self) -> &TokenKind {
        let k = &self.tokens[self.pos].kind;
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        k
    }

    fn err(&self, message: String) -> DslError {
        DslError::Parse {
            line: self.line(),
            message,
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<(), DslError> {
        if *self.peek() == kind {
            self.advance();
            Ok(())
        } else {
            Err(self.err(format!("expected {kind}, found {}", self.peek())))
        }
    }

    fn expect_keyword(&mut self, kw: Keyword) -> Result<(), DslError> {
        self.expect(TokenKind::Keyword(kw))
    }

    fn expect_ident(&mut self, what: &str) -> Result<String, DslError> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.advance();
                Ok(s)
            }
            other => Err(self.err(format!("expected {what}, found {other}"))),
        }
    }

    fn parse_input_type(&mut self) -> Result<InputType, DslError> {
        match self.peek().clone() {
            TokenKind::Keyword(Keyword::Scalar) => {
                self.advance();
                Ok(InputType::Scalar)
            }
            TokenKind::Keyword(Keyword::Vec) => {
                self.advance();
                self.expect(TokenKind::LBracket)?;
                let n = match self.peek() {
                    TokenKind::Number(n) if *n >= 1.0 && n.fract() == 0.0 => *n as usize,
                    other => {
                        return Err(self.err(format!(
                            "expected a positive integer vector length, found {other}"
                        )))
                    }
                };
                self.advance();
                self.expect(TokenKind::RBracket)?;
                Ok(InputType::Vec(n))
            }
            other => Err(self.err(format!("expected `scalar` or `vec[N]`, found {other}"))),
        }
    }

    /// The depth of a node over a subtree of depth `inner`, or a parse
    /// error once the enclosing expression would exceed [`MAX_EXPR_DEPTH`].
    fn deeper(&self, inner: usize) -> Result<usize, DslError> {
        let depth = inner + 1;
        if self.nesting + depth > MAX_EXPR_DEPTH {
            return Err(self.err(format!(
                "expression nests deeper than {MAX_EXPR_DEPTH} levels"
            )));
        }
        Ok(depth)
    }

    /// Runs `parse` one nesting level down, refusing before it recurses
    /// past [`MAX_EXPR_DEPTH`].
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, DslError>,
    ) -> Result<T, DslError> {
        self.deeper(0)?;
        self.nesting += 1;
        let parsed = parse(self);
        self.nesting -= 1;
        parsed
    }

    // Each rule returns its tree with the tree's depth.

    // expr := term (("+"|"-") term)*
    fn parse_expr(&mut self) -> Result<(Expr, usize), DslError> {
        let (mut lhs, mut depth) = self.parse_term()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => return Ok((lhs, depth)),
            };
            self.advance();
            let (rhs, rhs_depth) = self.parse_term()?;
            depth = self.deeper(depth.max(rhs_depth))?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
    }

    // term := unary (("*"|"/") unary)*
    fn parse_term(&mut self) -> Result<(Expr, usize), DslError> {
        let (mut lhs, mut depth) = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                _ => return Ok((lhs, depth)),
            };
            self.advance();
            let (rhs, rhs_depth) = self.parse_unary()?;
            depth = self.deeper(depth.max(rhs_depth))?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
    }

    fn parse_unary(&mut self) -> Result<(Expr, usize), DslError> {
        if *self.peek() == TokenKind::Minus {
            self.advance();
            let (e, depth) = self.nested(Self::parse_unary)?;
            return Ok((Expr::Neg(Box::new(e)), self.deeper(depth)?));
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<(Expr, usize), DslError> {
        match self.peek().clone() {
            TokenKind::Number(n) => {
                self.advance();
                Ok((Expr::Number(n), 1))
            }
            TokenKind::Ident(name) => {
                self.advance();
                if *self.peek() == TokenKind::LParen {
                    self.advance();
                    let (args, depth) = self.nested(|p| {
                        let mut args = Vec::new();
                        let mut depth = 0;
                        if *p.peek() != TokenKind::RParen {
                            loop {
                                let (arg, arg_depth) = p.parse_expr()?;
                                args.push(arg);
                                depth = depth.max(arg_depth);
                                if *p.peek() == TokenKind::Comma {
                                    p.advance();
                                } else {
                                    break;
                                }
                            }
                        }
                        Ok((args, depth))
                    })?;
                    self.expect(TokenKind::RParen)?;
                    Ok((Expr::Call { name, args }, self.deeper(depth)?))
                } else {
                    Ok((Expr::Ident(name), 1))
                }
            }
            TokenKind::LParen => {
                self.advance();
                let (e, depth) = self.nested(Self::parse_expr)?;
                self.expect(TokenKind::RParen)?;
                Ok((e, self.deeper(depth)?))
            }
            other => Err(self.err(format!("expected an expression, found {other}"))),
        }
    }

    // layer_spec := IDENT "(" (IDENT "=" NUMBER ("," IDENT "=" NUMBER)*)? ")"
    //               ("->" IDENT ("(" params ")")? )?
    fn parse_layer_spec(&mut self) -> Result<LayerSpec, DslError> {
        let layer = self.expect_ident("layer name")?;
        let params = self.parse_named_params()?;
        let activation = if *self.peek() == TokenKind::Arrow {
            self.advance();
            let act = self.expect_ident("activation name")?;
            let act_params = if *self.peek() == TokenKind::LParen {
                self.parse_named_params()?
            } else {
                Vec::new()
            };
            Some((act, act_params))
        } else {
            None
        };
        Ok(LayerSpec {
            layer,
            params,
            activation,
        })
    }

    fn parse_named_params(&mut self) -> Result<Vec<(String, f64)>, DslError> {
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        if *self.peek() != TokenKind::RParen {
            loop {
                let name = self.expect_ident("parameter name")?;
                self.expect(TokenKind::Eq)?;
                let negative = if *self.peek() == TokenKind::Minus {
                    self.advance();
                    true
                } else {
                    false
                };
                let value = match self.peek() {
                    TokenKind::Number(n) => *n,
                    other => return Err(self.err(format!("expected a number, found {other}"))),
                };
                self.advance();
                params.push((name, if negative { -value } else { value }));
                if *self.peek() == TokenKind::Comma {
                    self.advance();
                } else {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen)?;
        Ok(params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_state() {
        let p = parse_state("state s { input buffer_s: scalar; feature b = buffer_s / 10.0; }")
            .unwrap();
        assert_eq!(p.name, "s");
        assert_eq!(p.inputs.len(), 1);
        assert_eq!(p.features.len(), 1);
    }

    #[test]
    fn parses_precedence() {
        let p = parse_state("state s { feature f = 1.0 + 2.0 * 3.0; }").unwrap();
        match &p.features[0].expr {
            Expr::Binary {
                op: BinOp::Add,
                rhs,
                ..
            } => {
                assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("wrong tree: {other:?}"),
        }
    }

    #[test]
    fn parses_nested_calls() {
        let p =
            parse_state("state s { input t: vec[8]; feature f = ema(t, 0.5) / max(t); }").unwrap();
        assert!(matches!(p.features[0].expr, Expr::Binary { .. }));
    }

    #[test]
    fn parses_unary_minus() {
        let p = parse_state("state s { feature f = -1.0 + 2.0; }").unwrap();
        match &p.features[0].expr {
            Expr::Binary { lhs, .. } => assert!(matches!(**lhs, Expr::Neg(_))),
            other => panic!("wrong tree: {other:?}"),
        }
    }

    #[test]
    fn reports_missing_semicolon_with_line() {
        let err = parse_state("state s {\n feature f = 1.0\n}").unwrap_err();
        match err {
            DslError::Parse { line, .. } => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn parses_arch_program() {
        let a = parse_arch(
            "network n { temporal conv1d(filters=128, kernel=4) -> relu; \
             scalar dense(units=128) -> relu; hidden dense(units=128) -> relu; \
             heads separate; }",
        )
        .unwrap();
        assert_eq!(a.temporal.layer, "conv1d");
        assert_eq!(a.temporal.param("filters"), Some(128.0));
        assert!(!a.shared_heads);
        assert_eq!(a.hidden.len(), 1);
    }

    #[test]
    fn parses_activation_params() {
        let a = parse_arch(
            "network n { temporal dense(units=64) -> leaky_relu(alpha=0.01); \
             scalar dense(units=64) -> relu; hidden dense(units=64) -> relu; heads shared; }",
        )
        .unwrap();
        let (act, params) = a.temporal.activation.unwrap();
        assert_eq!(act, "leaky_relu");
        assert_eq!(params[0], ("alpha".to_string(), 0.01));
        assert!(a.shared_heads);
    }

    #[test]
    fn arch_requires_all_sections() {
        let err = parse_arch("network n { temporal dense(units=4); scalar dense(units=4); }")
            .unwrap_err();
        assert!(matches!(err, DslError::MissingSection { section: "heads" }));
    }

    #[test]
    fn rejects_duplicate_sections() {
        let err = parse_arch(
            "network n { temporal dense(units=4); temporal dense(units=8); \
             scalar dense(units=4); heads shared; }",
        )
        .unwrap_err();
        assert!(matches!(err, DslError::Duplicate { .. }));
    }

    fn nested_parens(levels: usize) -> String {
        format!(
            "state s {{ feature f = {}1.0{}; }}",
            "(".repeat(levels),
            ")".repeat(levels)
        )
    }

    fn chain(terms: usize) -> String {
        format!(
            "state s {{ feature f = {}; }}",
            vec!["1.0"; terms].join("+")
        )
    }

    #[test]
    fn depth_counts_every_nesting_form() {
        let depth = |src: &str| {
            let mut p = Parser::new(lex(src).unwrap());
            p.parse_expr().unwrap().1
        };
        assert_eq!(depth("x"), 1);
        assert_eq!(depth("(x)"), 2);
        assert_eq!(depth("-x"), 2);
        assert_eq!(depth("f(x, (y))"), 3);
        assert_eq!(depth("a + b * c"), 3);
        assert_eq!(depth("a + b + c + d"), 4);
        assert!(parse_state(&nested_parens(MAX_EXPR_DEPTH - 1)).is_ok());
        assert!(parse_state(&chain(MAX_EXPR_DEPTH)).is_ok());
    }

    #[test]
    fn over_deep_expressions_are_parse_errors() {
        for src in [
            nested_parens(MAX_EXPR_DEPTH),
            chain(MAX_EXPR_DEPTH + 1),
            format!(
                "state s {{ feature f = {}1.0; }}",
                "-".repeat(MAX_EXPR_DEPTH)
            ),
            format!(
                "state s {{ input t: vec[8]; feature f = {}t{}; }}",
                "max(".repeat(MAX_EXPR_DEPTH),
                ")".repeat(MAX_EXPR_DEPTH)
            ),
        ] {
            match parse_state(&src) {
                Err(DslError::Parse { message, .. }) => {
                    assert!(message.contains("deeper than"), "{message}")
                }
                other => panic!("expected a depth error, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_garbage_after_program() {
        assert!(parse_state("state s { feature f = 1.0; } trailing").is_err());
    }
}
