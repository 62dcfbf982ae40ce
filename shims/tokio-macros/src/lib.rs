//! Offline stand-in for `tokio-macros`.
//!
//! Expands `#[tokio::main]` and `#[tokio::test]` without depending on
//! `syn`/`quote` (unavailable offline): the token stream of an `async fn`
//! is rewritten by hand — the `async` keyword is dropped and the body is
//! wrapped in `::tokio::runtime::block_on(async move { ... })`. Arguments
//! to the attribute (e.g. `flavor = "multi_thread"`) are accepted and
//! ignored; the shim runtime has a single flavor.

use proc_macro::{Delimiter, Group, Ident, Punct, Spacing, Span, TokenStream, TokenTree};

/// Marks an `async fn` as the program entry point.
#[proc_macro_attribute]
pub fn main(_args: TokenStream, item: TokenStream) -> TokenStream {
    rewrite(item, false)
}

/// Marks an `async fn` as a test executed on the shim runtime.
#[proc_macro_attribute]
pub fn test(_args: TokenStream, item: TokenStream) -> TokenStream {
    rewrite(item, true)
}

/// Drop `async`, wrap the final brace group (the fn body) in a `block_on`
/// call, and optionally prepend `#[test]`.
fn rewrite(item: TokenStream, is_test: bool) -> TokenStream {
    let tokens: Vec<TokenTree> = item.into_iter().collect();

    let body_idx = match tokens
        .iter()
        .rposition(|t| matches!(t, TokenTree::Group(g) if g.delimiter() == Delimiter::Brace))
    {
        Some(i) => i,
        None => return compile_error("#[tokio::main]/#[tokio::test] requires a fn with a body"),
    };
    if !tokens
        .iter()
        .any(|t| matches!(t, TokenTree::Ident(id) if id.to_string() == "async"))
    {
        return compile_error("#[tokio::main]/#[tokio::test] requires an async fn");
    }

    let mut out: Vec<TokenTree> = Vec::new();
    if is_test {
        // #[::core::prelude::v1::test]
        out.push(TokenTree::Punct(Punct::new('#', Spacing::Alone)));
        let inner: TokenStream = "::core::prelude::v1::test".parse().unwrap();
        out.push(TokenTree::Group(Group::new(Delimiter::Bracket, inner)));
    }

    for (i, tok) in tokens.into_iter().enumerate() {
        if matches!(&tok, TokenTree::Ident(id) if id.to_string() == "async") && i < body_idx {
            continue; // drop the `async` qualifier on the fn itself
        }
        if i == body_idx {
            let body = match tok {
                TokenTree::Group(g) => g.stream(),
                _ => unreachable!("body_idx points at a brace group"),
            };
            let mut call: Vec<TokenTree> = Vec::new();
            for seg in ["tokio", "runtime", "block_on"] {
                call.push(TokenTree::Punct(Punct::new(':', Spacing::Joint)));
                call.push(TokenTree::Punct(Punct::new(':', Spacing::Alone)));
                call.push(TokenTree::Ident(Ident::new(seg, Span::call_site())));
            }
            let arg: Vec<TokenTree> = vec![
                TokenTree::Ident(Ident::new("async", Span::call_site())),
                TokenTree::Ident(Ident::new("move", Span::call_site())),
                TokenTree::Group(Group::new(Delimiter::Brace, body)),
            ];
            call.push(TokenTree::Group(Group::new(
                Delimiter::Parenthesis,
                arg.into_iter().collect(),
            )));
            out.push(TokenTree::Group(Group::new(
                Delimiter::Brace,
                call.into_iter().collect(),
            )));
        } else {
            out.push(tok);
        }
    }
    out.into_iter().collect()
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}
