//! Offline stand-in for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` and `#[derive(Deserialize)]` for the
//! type shapes this workspace uses — structs with named fields and enums
//! with unit or struct variants, with optional plain type parameters — by
//! parsing the item's token stream directly (no `syn`/`quote`, which are
//! unavailable offline) and emitting impls of the sibling `serde` stub's
//! traits: `write_json` appends the value's JSON text field by field, and
//! `read_json` reads it back from a `serde::Reader` with no value tree in
//! between. External tagging matches real serde: unit variants serialize
//! as strings, struct variants as single-key objects. A struct's fields
//! read by name in any order (the first duplicate wins, unknown keys are
//! skipped), and a missing field takes `Deserialize::missing_field`.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
enum ItemKind {
    Struct,
    Enum,
}

#[derive(Debug)]
struct Variant {
    name: String,
    /// `None` for unit variants, `Some(fields)` for struct variants.
    fields: Option<Vec<String>>,
}

#[derive(Debug)]
struct Item {
    kind: ItemKind,
    name: String,
    generics: Vec<String>,
    /// Struct field names, or enum variants.
    fields: Vec<String>,
    variants: Vec<Variant>,
}

/// Derives `Serialize`: `write_json` appends the value's JSON text.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, true)
}

/// Derives `Deserialize`: `read_json` reads the value's JSON text.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, false)
}

fn expand(input: TokenStream, serialize: bool) -> TokenStream {
    let item = match parse_item(input) {
        Ok(item) => item,
        Err(message) => {
            return format!("compile_error!({message:?});").parse().unwrap();
        }
    };
    let code = if serialize {
        gen_serialize(&item)
    } else {
        gen_deserialize(&item)
    };
    code.parse().unwrap()
}

// ---- parsing ---------------------------------------------------------------

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    // Skip attributes and visibility before the struct/enum keyword.
    let kind = loop {
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => i += 2, // #[...]
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1; // pub(crate) etc.
                    }
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "struct" => {
                i += 1;
                break ItemKind::Struct;
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "enum" => {
                i += 1;
                break ItemKind::Enum;
            }
            Some(_) => i += 1,
            None => return Err("expected `struct` or `enum`".into()),
        }
    };

    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => {
            i += 1;
            id.to_string()
        }
        _ => return Err("expected item name".into()),
    };

    // Optional generics: collect plain type-parameter names.
    let mut generics = Vec::new();
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            i += 1;
            let mut depth = 1usize;
            let mut expect_param = true;
            while depth > 0 {
                match tokens.get(i) {
                    Some(TokenTree::Punct(p)) if p.as_char() == '<' => depth += 1,
                    Some(TokenTree::Punct(p)) if p.as_char() == '>' => depth -= 1,
                    Some(TokenTree::Punct(p)) if p.as_char() == ',' && depth == 1 => {
                        expect_param = true;
                        i += 1;
                        continue;
                    }
                    Some(TokenTree::Ident(id)) if depth == 1 && expect_param => {
                        generics.push(id.to_string());
                        expect_param = false;
                    }
                    Some(_) => {}
                    None => return Err("unterminated generics".into()),
                }
                i += 1;
            }
        }
    }

    // The body is the last top-level brace group (skips any where-clause).
    let body = tokens[i..]
        .iter()
        .rev()
        .find_map(|t| match t {
            TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => Some(g.clone()),
            _ => None,
        })
        .ok_or("expected a braced body (tuple and unit items are unsupported)")?;

    let mut item = Item {
        kind,
        name,
        generics,
        fields: Vec::new(),
        variants: Vec::new(),
    };
    match item.kind {
        ItemKind::Struct => item.fields = parse_named_fields(body.stream())?,
        ItemKind::Enum => item.variants = parse_variants(body.stream())?,
    }
    Ok(item)
}

fn parse_named_fields(stream: TokenStream) -> Result<Vec<String>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => i += 2,
            TokenTree::Ident(id) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            TokenTree::Ident(id) => {
                fields.push(id.to_string());
                i += 1;
                match tokens.get(i) {
                    Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
                    _ => return Err(format!("expected `:` after field `{id}`")),
                }
                // Skip the type: everything until a comma outside angle
                // brackets (parens/brackets/braces arrive as single groups).
                let mut depth = 0usize;
                while let Some(t) = tokens.get(i) {
                    match t {
                        TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                        TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                        TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                            i += 1;
                            break;
                        }
                        _ => {}
                    }
                    i += 1;
                }
            }
            _ => return Err("unsupported token in struct body (named fields only)".into()),
        }
    }
    Ok(fields)
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => i += 2,
            TokenTree::Punct(p) if p.as_char() == ',' => i += 1,
            TokenTree::Ident(id) => {
                let name = id.to_string();
                i += 1;
                let fields = match tokens.get(i) {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                        i += 1;
                        Some(parse_named_fields(g.stream())?)
                    }
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                        return Err(format!(
                            "tuple variant `{name}` is unsupported by the serde stub derive"
                        ));
                    }
                    _ => None,
                };
                variants.push(Variant { name, fields });
            }
            _ => return Err("unsupported token in enum body".into()),
        }
    }
    Ok(variants)
}

// ---- code generation -------------------------------------------------------

fn impl_header(item: &Item, trait_path: &str) -> String {
    if item.generics.is_empty() {
        format!("impl {trait_path} for {}", item.name)
    } else {
        let bounded: Vec<String> = item
            .generics
            .iter()
            .map(|g| format!("{g}: {trait_path}"))
            .collect();
        format!(
            "impl<{}> {trait_path} for {}<{}>",
            bounded.join(", "),
            item.name,
            item.generics.join(", ")
        )
    }
}

/// Statements writing the object `{"f":…,…}` of `fields`, each read from
/// the expression `access(f)`, after the literal text `prefix`.
fn write_object(prefix: &str, fields: &[String], access: impl Fn(&str) -> String) -> String {
    let mut code = String::new();
    let mut text = format!("{prefix}{{");
    for (i, f) in fields.iter().enumerate() {
        if i > 0 {
            text.push(',');
        }
        text.push_str(&format!("\"{f}\":"));
        code.push_str(&format!(
            "__out.push_str({text:?}); ::serde::Serialize::write_json({}, __out);",
            access(f)
        ));
        text.clear();
    }
    text.push('}');
    code.push_str(&format!("__out.push_str({text:?});"));
    code
}

fn gen_serialize(item: &Item) -> String {
    let header = impl_header(item, "::serde::Serialize");
    let body = match item.kind {
        ItemKind::Struct => write_object("", &item.fields, |f| format!("&self.{f}")),
        ItemKind::Enum => {
            let arms: Vec<String> = item
                .variants
                .iter()
                .map(|v| {
                    let vname = &v.name;
                    match &v.fields {
                        None => format!(
                            "Self::{vname} => __out.push_str({:?}),",
                            format!("\"{vname}\"")
                        ),
                        Some(fields) => format!(
                            "Self::{vname} {{ {} }} => {{ {} __out.push('}}'); }}",
                            fields.join(", "),
                            write_object(&format!("{{\"{vname}\":"), fields, str::to_string)
                        ),
                    }
                })
                .collect();
            format!("match self {{ {} }}", arms.join(" "))
        }
    };
    format!("{header} {{ fn write_json(&self, __out: &mut ::std::string::String) {{ {body} }} }}")
}

/// An expression reading the object of `fields` into `ctor { … }`, or
/// failing with `expected` when no object is next.
fn read_object(ctor: &str, fields: &[String], expected: &str) -> String {
    let slots: String = fields
        .iter()
        .map(|f| format!("let mut __f_{f} = ::std::option::Option::None;"))
        .collect();
    let arms: String = fields
        .iter()
        .map(|f| {
            format!(
                "{f:?} if __f_{f}.is_none() => \
                 __f_{f} = ::std::option::Option::Some(::serde::Deserialize::read_json(__r)?),"
            )
        })
        .collect();
    let inits: Vec<String> = fields
        .iter()
        .map(|f| {
            format!(
                "{f}: match __f_{f} {{ ::std::option::Option::Some(__v) => __v, \
                 ::std::option::Option::None => ::serde::Deserialize::missing_field({f:?})? }}"
            )
        })
        .collect();
    format!(
        "{{ {slots} __r.read_object({expected:?}, |__r, __key| {{ \
         match __key {{ {arms} _ => __r.skip_value()?, }} \
         ::std::result::Result::Ok(()) }})?; \
         {ctor} {{ {} }} }}",
        inits.join(", ")
    )
}

fn gen_deserialize(item: &Item) -> String {
    let header = impl_header(item, "::serde::Deserialize");
    let name = &item.name;
    let body = match item.kind {
        ItemKind::Struct => format!(
            "::std::result::Result::Ok({})",
            read_object("Self", &item.fields, &format!("expected object for {name}"))
        ),
        ItemKind::Enum => {
            let unit_arms: String = item
                .variants
                .iter()
                .filter(|v| v.fields.is_none())
                .map(|v| {
                    format!(
                        "{:?} => ::std::result::Result::Ok(Self::{}),",
                        v.name, v.name
                    )
                })
                .collect();
            let struct_arms: String = item
                .variants
                .iter()
                .filter_map(|v| v.fields.as_ref().map(|fields| (v, fields)))
                .map(|(v, fields)| {
                    let vname = &v.name;
                    let read = read_object(
                        &format!("Self::{vname}"),
                        fields,
                        &format!("expected object for variant {vname}"),
                    );
                    format!("{vname:?} => {read},")
                })
                .collect();
            let struct_arm = if struct_arms.is_empty() {
                "::serde::Tag::Struct(_) => ::std::result::Result::Err(__unknown()),".to_string()
            } else {
                format!(
                    "::serde::Tag::Struct(__tag) => {{ \
                     let __value = match &*__tag {{ {struct_arms} _ => \
                     return ::std::result::Result::Err(__unknown()) }}; \
                     if __r.end_tag() {{ ::std::result::Result::Ok(__value) }} \
                     else {{ ::std::result::Result::Err(__unknown()) }} }}"
                )
            };
            format!(
                "let __unknown = || ::serde::Error::custom(\"unknown variant for {name}\"); \
                 match __r.read_tag()? {{ \
                 ::serde::Tag::Unit(__tag) => match &*__tag {{ {unit_arms} _ => \
                 ::std::result::Result::Err(__unknown()) }}, \
                 {struct_arm} \
                 ::serde::Tag::Other => ::std::result::Result::Err(__unknown()), }}"
            )
        }
    };
    format!(
        "{header} {{ fn read_json(__r: &mut ::serde::Reader<'_>) -> \
         ::std::result::Result<Self, ::serde::Error> {{ {body} }} }}"
    )
}
