//! `#[derive(Serialize, Deserialize)]` for the offline `serde` stand-in.
//!
//! Written against bare `proc_macro` (no `syn`, no `quote`): a small
//! hand-rolled parser reads just enough of the item — name, field names,
//! variant shapes and the `#[serde(..)]` attributes this workspace uses —
//! and the impls are generated as source text. Supported attributes:
//! container `transparent`, `default`, `tag = ".."`, `rename_all = ".."`
//! (`snake_case`, `lowercase`, `kebab-case`); field `default` and
//! `default = "path"`. Anything else is a compile error, not a silent
//! difference from the real crate.

use proc_macro::{Delimiter, Group, TokenStream, TokenTree};

#[derive(Default)]
struct Attrs {
    transparent: bool,
    /// `Some(None)` = `default`, `Some(Some(path))` = `default = "path"`.
    default: Option<Option<String>>,
    tag: Option<String>,
    rename_all: Option<String>,
}

struct Field {
    /// As written, so `r#type` stays usable as a Rust identifier.
    ident: String,
    attrs: Attrs,
}

impl Field {
    fn json_name(&self) -> &str {
        self.ident.strip_prefix("r#").unwrap_or(&self.ident)
    }
}

enum Fields {
    Named(Vec<Field>),
    Tuple(usize),
    Unit,
}

struct Variant {
    ident: String,
    fields: Fields,
}

enum Data {
    Struct(Fields),
    Enum(Vec<Variant>),
}

struct Input {
    ident: String,
    attrs: Attrs,
    data: Data,
}

type Tokens = std::iter::Peekable<proc_macro::token_stream::IntoIter>;

fn is_punct(t: Option<&TokenTree>, c: char) -> bool {
    matches!(t, Some(TokenTree::Punct(p)) if p.as_char() == c)
}

fn unquote(lit: &str) -> String {
    lit.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .unwrap_or_else(|| panic!("serde stand-in: expected a plain string literal, found {lit}"))
        .to_string()
}

/// Folds one `#[serde(a, b = "c")]` list into `attrs`.
fn parse_serde_meta(group: Group, attrs: &mut Attrs) {
    let mut it = group.stream().into_iter().peekable();
    while let Some(t) = it.next() {
        let TokenTree::Ident(key) = t else {
            panic!("serde stand-in: unexpected token `{t}` in #[serde(..)]");
        };
        let key = key.to_string();
        let value = if is_punct(it.peek(), '=') {
            it.next();
            Some(unquote(&it.next().expect("value after `=`").to_string()))
        } else {
            None
        };
        match (key.as_str(), value) {
            ("transparent", None) => attrs.transparent = true,
            ("default", v) => attrs.default = Some(v),
            ("tag", Some(v)) => attrs.tag = Some(v),
            ("rename_all", Some(v)) => attrs.rename_all = Some(v),
            (other, _) => panic!("serde stand-in: unsupported attribute `{other}`"),
        }
        if is_punct(it.peek(), ',') {
            it.next();
        }
    }
}

/// Consumes leading `#[..]` attributes, keeping what `#[serde(..)]` says.
fn parse_attrs(it: &mut Tokens) -> Attrs {
    let mut attrs = Attrs::default();
    while is_punct(it.peek(), '#') {
        it.next();
        let Some(TokenTree::Group(g)) = it.next() else {
            panic!("serde stand-in: `#` not followed by an attribute");
        };
        let mut inner = g.stream().into_iter();
        if matches!(inner.next(), Some(TokenTree::Ident(i)) if i.to_string() == "serde") {
            if let Some(TokenTree::Group(list)) = inner.next() {
                parse_serde_meta(list, &mut attrs);
            }
        }
    }
    attrs
}

/// Consumes `pub`, `pub(crate)` and the like.
fn skip_visibility(it: &mut Tokens) {
    if matches!(it.peek(), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
        it.next();
        if matches!(it.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            it.next();
        }
    }
}

/// Consumes one type (or discriminant expression): everything up to a comma
/// that is not inside `<..>`. Returns whether any token was consumed.
fn skip_until_comma(it: &mut Tokens) -> bool {
    let mut depth = 0usize;
    let mut any = false;
    while let Some(t) = it.peek() {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                ',' if depth == 0 => break,
                '<' => depth += 1,
                // The `>` of `->` never appears at depth 0 in a field type
                // outside parentheses, and parenthesised groups are one token.
                '>' => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
        any = true;
        it.next();
    }
    any
}

fn parse_named_fields(group: Group) -> Vec<Field> {
    let mut it = group.stream().into_iter().peekable();
    let mut fields = Vec::new();
    while it.peek().is_some() {
        let attrs = parse_attrs(&mut it);
        skip_visibility(&mut it);
        let Some(TokenTree::Ident(ident)) = it.next() else {
            panic!("serde stand-in: expected a field name");
        };
        assert!(
            is_punct(it.next().as_ref(), ':'),
            "serde stand-in: expected `:`"
        );
        skip_until_comma(&mut it);
        it.next(); // the comma, if any
        fields.push(Field {
            ident: ident.to_string(),
            attrs,
        });
    }
    fields
}

fn count_tuple_fields(group: Group) -> usize {
    let mut it = group.stream().into_iter().peekable();
    let mut n = 0;
    while it.peek().is_some() {
        parse_attrs(&mut it);
        skip_visibility(&mut it);
        if skip_until_comma(&mut it) {
            n += 1;
        }
        it.next();
    }
    n
}

fn parse_fields(it: &mut Tokens) -> Fields {
    match it.peek() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            let Some(TokenTree::Group(g)) = it.next() else {
                unreachable!()
            };
            Fields::Named(parse_named_fields(g))
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            let Some(TokenTree::Group(g)) = it.next() else {
                unreachable!()
            };
            Fields::Tuple(count_tuple_fields(g))
        }
        _ => Fields::Unit,
    }
}

fn parse_variants(group: Group) -> Vec<Variant> {
    let mut it = group.stream().into_iter().peekable();
    let mut variants = Vec::new();
    while it.peek().is_some() {
        parse_attrs(&mut it);
        let Some(TokenTree::Ident(ident)) = it.next() else {
            panic!("serde stand-in: expected a variant name");
        };
        let fields = parse_fields(&mut it);
        if is_punct(it.peek(), '=') {
            it.next();
            skip_until_comma(&mut it);
        }
        it.next(); // the comma, if any
        variants.push(Variant {
            ident: ident.to_string(),
            fields,
        });
    }
    variants
}

fn parse_input(input: TokenStream) -> Input {
    let mut it = input.into_iter().peekable();
    let attrs = parse_attrs(&mut it);
    skip_visibility(&mut it);
    let Some(TokenTree::Ident(kind)) = it.next() else {
        panic!("serde stand-in: expected `struct` or `enum`");
    };
    let Some(TokenTree::Ident(ident)) = it.next() else {
        panic!("serde stand-in: expected the type name");
    };
    if is_punct(it.peek(), '<') {
        panic!("serde stand-in: generic types are not supported (`{ident}`)");
    }
    let data = match kind.to_string().as_str() {
        "struct" => Data::Struct(parse_fields(&mut it)),
        "enum" => match it.next() {
            Some(TokenTree::Group(g)) => Data::Enum(parse_variants(g)),
            _ => panic!("serde stand-in: expected the enum body"),
        },
        other => panic!("serde stand-in: cannot derive for `{other}`"),
    };
    Input {
        ident: ident.to_string(),
        attrs,
        data,
    }
}

fn rename(ident: &str, rule: Option<&str>) -> String {
    let ident = ident.strip_prefix("r#").unwrap_or(ident);
    match rule {
        None => ident.to_string(),
        Some("lowercase") => ident.to_lowercase(),
        Some(rule @ ("snake_case" | "kebab-case")) => {
            let sep = if rule == "snake_case" { '_' } else { '-' };
            let mut out = String::new();
            for (i, c) in ident.chars().enumerate() {
                if c.is_uppercase() && i > 0 {
                    out.push(sep);
                }
                out.extend(c.to_lowercase());
            }
            out
        }
        Some(other) => panic!("serde stand-in: unsupported rename_all = \"{other}\""),
    }
}

/// `"{\"a\":"`-style Rust string literal holding `text` as JSON source.
fn lit(text: &str) -> String {
    format!("{text:?}")
}

fn binding(f: &Field) -> String {
    format!("__f_{}", f.json_name())
}

// ---------------------------------------------------------------- Serialize

/// Statements writing `"name":value` pairs; `first` says whether a comma is
/// still owed before the first pair.
fn write_named(fields: &[Field], access: impl Fn(&Field) -> String, mut first: bool) -> String {
    let mut s = String::new();
    for f in fields {
        let sep = if first { "" } else { "," };
        first = false;
        s += &format!(
            "__out.push_str({}); ::serde::Serialize::write_json({}, __out);",
            lit(&format!("{sep}\"{}\":", f.json_name())),
            access(f)
        );
    }
    s
}

fn insert_named(fields: &[Field], access: impl Fn(&Field) -> String) -> String {
    fields
        .iter()
        .map(|f| {
            format!(
                "__m.insert({}.to_string(), ::serde::Serialize::to_value({}));",
                lit(f.json_name()),
                access(f)
            )
        })
        .collect()
}

fn write_tuple(n: usize, access: impl Fn(usize) -> String) -> String {
    let mut s = String::from("__out.push('[');");
    for i in 0..n {
        if i > 0 {
            s += "__out.push(',');";
        }
        s += &format!("::serde::Serialize::write_json({}, __out);", access(i));
    }
    s + "__out.push(']');"
}

fn tuple_value(n: usize, access: impl Fn(usize) -> String) -> String {
    let items: Vec<String> = (0..n)
        .map(|i| format!("::serde::Serialize::to_value({})", access(i)))
        .collect();
    format!("::serde::Value::Array(vec![{}])", items.join(","))
}

fn pattern(ty: &str, v: &Variant) -> String {
    match &v.fields {
        Fields::Unit => format!("{ty}::{}", v.ident),
        Fields::Tuple(n) => {
            let binds: Vec<String> = (0..*n).map(|i| format!("__f_{i}")).collect();
            format!("{ty}::{}({})", v.ident, binds.join(","))
        }
        Fields::Named(fields) => {
            let binds: Vec<String> = fields
                .iter()
                .map(|f| format!("{}: {}", f.ident, binding(f)))
                .collect();
            format!("{ty}::{} {{ {} }}", v.ident, binds.join(","))
        }
    }
}

fn serialize_struct(input: &Input, fields: &Fields) -> (String, String) {
    match fields {
        Fields::Unit => (
            "__out.push_str(\"null\");".into(),
            "::serde::Value::Null".into(),
        ),
        Fields::Tuple(1) => (
            "::serde::Serialize::write_json(&self.0, __out);".into(),
            "::serde::Serialize::to_value(&self.0)".into(),
        ),
        Fields::Tuple(n) => (
            write_tuple(*n, |i| format!("&self.{i}")),
            tuple_value(*n, |i| format!("&self.{i}")),
        ),
        Fields::Named(fields) if input.attrs.transparent => {
            assert!(
                fields.len() == 1,
                "serde stand-in: transparent needs one field"
            );
            let f = &fields[0].ident;
            (
                format!("::serde::Serialize::write_json(&self.{f}, __out);"),
                format!("::serde::Serialize::to_value(&self.{f})"),
            )
        }
        Fields::Named(fields) => {
            let access = |f: &Field| format!("&self.{}", f.ident);
            (
                format!(
                    "__out.push('{{'); {} __out.push('}}');",
                    write_named(fields, access, true)
                ),
                format!(
                    "let mut __m = ::serde::Map::new(); {} ::serde::Value::Object(__m)",
                    insert_named(fields, access)
                ),
            )
        }
    }
}

fn serialize_enum(input: &Input, variants: &[Variant]) -> (String, String) {
    let ty = &input.ident;
    let rule = input.attrs.rename_all.as_deref();
    let mut write_arms = String::new();
    let mut value_arms = String::new();
    for v in variants {
        let name = rename(&v.ident, rule);
        let pat = pattern(ty, v);
        let (write, value) = match (&input.attrs.tag, &v.fields) {
            (None, Fields::Unit) => (
                format!("__out.push_str({});", lit(&format!("\"{name}\""))),
                format!("::serde::Value::String({}.to_string())", lit(&name)),
            ),
            (None, fields) => {
                let (inner_write, inner_value) = match fields {
                    Fields::Tuple(1) => (
                        "::serde::Serialize::write_json(__f_0, __out);".to_string(),
                        "::serde::Serialize::to_value(__f_0)".to_string(),
                    ),
                    Fields::Tuple(n) => (
                        write_tuple(*n, |i| format!("__f_{i}")),
                        tuple_value(*n, |i| format!("__f_{i}")),
                    ),
                    Fields::Named(fs) => (
                        format!(
                            "__out.push('{{'); {} __out.push('}}');",
                            write_named(fs, binding, true)
                        ),
                        format!(
                            "{{ let mut __m = ::serde::Map::new(); {} ::serde::Value::Object(__m) }}",
                            insert_named(fs, binding)
                        ),
                    ),
                    Fields::Unit => unreachable!(),
                };
                (
                    format!(
                        "__out.push_str({}); {inner_write} __out.push('}}');",
                        lit(&format!("{{\"{name}\":"))
                    ),
                    format!(
                        "{{ let mut __o = ::serde::Map::new(); __o.insert({}.to_string(), {inner_value}); ::serde::Value::Object(__o) }}",
                        lit(&name)
                    ),
                )
            }
            (Some(tag), Fields::Unit) => (
                format!(
                    "__out.push_str({});",
                    lit(&format!("{{\"{tag}\":\"{name}\"}}"))
                ),
                format!(
                    "{{ let mut __m = ::serde::Map::new(); __m.insert({}.to_string(), ::serde::Value::String({}.to_string())); ::serde::Value::Object(__m) }}",
                    lit(tag),
                    lit(&name)
                ),
            ),
            (Some(tag), Fields::Named(fs)) => (
                format!(
                    "__out.push_str({}); {} __out.push('}}');",
                    lit(&format!("{{\"{tag}\":\"{name}\"")),
                    write_named(fs, binding, false)
                ),
                format!(
                    "{{ let mut __m = ::serde::Map::new(); __m.insert({}.to_string(), ::serde::Value::String({}.to_string())); {} ::serde::Value::Object(__m) }}",
                    lit(tag),
                    lit(&name),
                    insert_named(fs, binding)
                ),
            ),
            (Some(tag), Fields::Tuple(1)) => {
                let tagged = format!(
                    "::serde::__private::tagged_value({}, {}, ::serde::Serialize::to_value(__f_0))",
                    lit(tag),
                    lit(&name)
                );
                (
                    format!("::serde::Serialize::write_json(&{tagged}, __out);"),
                    tagged,
                )
            }
            (Some(_), Fields::Tuple(_)) => {
                panic!("serde stand-in: tuple variant `{}` in a tagged enum", v.ident)
            }
        };
        write_arms += &format!("{pat} => {{ {write} }}");
        value_arms += &format!("{pat} => {{ {value} }}");
    }
    (
        format!("match self {{ {write_arms} }}"),
        format!("match self {{ {value_arms} }}"),
    )
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let input = parse_input(input);
    let (write, value) = match &input.data {
        Data::Struct(fields) => serialize_struct(&input, fields),
        Data::Enum(variants) => serialize_enum(&input, variants),
    };
    format!(
        "#[automatically_derived]
        impl ::serde::Serialize for {ty} {{
            fn write_json(&self, __out: &mut ::std::string::String) {{ {write} }}
            fn to_value(&self) -> ::serde::Value {{ {value} }}
        }}",
        ty = input.ident
    )
    .parse()
    .expect("generated Serialize impl parses")
}

// -------------------------------------------------------------- Deserialize

/// `name: field(..)?, ..` initialisers reading from the map `__m`.
/// `container_default` names a value whose fields fill in for absent ones.
fn read_named(fields: &[Field], container_default: Option<&str>) -> String {
    fields
        .iter()
        .map(|f| {
            let name = lit(f.json_name());
            let read = match (&f.attrs.default, container_default) {
                (Some(Some(path)), _) => {
                    format!("::serde::__private::field_or(&mut __m, {name}, {path})?")
                }
                (Some(None), _) => format!(
                    "::serde::__private::field_or(&mut __m, {name}, ::std::default::Default::default)?"
                ),
                (None, Some(d)) => format!(
                    "::serde::__private::field_or(&mut __m, {name}, || {d}.{})?",
                    f.ident
                ),
                (None, None) => format!("::serde::__private::field(&mut __m, {name})?"),
            };
            format!("{}: {read},", f.ident)
        })
        .collect()
}

fn read_tuple(n: usize) -> String {
    (0..n)
        .map(|_| "::serde::__private::next(&mut __it)?,")
        .collect()
}

fn deserialize_struct(input: &Input, fields: &Fields) -> String {
    let ty = &input.ident;
    let ty_lit = lit(ty);
    match fields {
        Fields::Unit => format!("<() as ::serde::Deserialize>::from_value(__v).map(|()| {ty})"),
        Fields::Tuple(1) => format!("::serde::Deserialize::from_value(__v).map({ty})"),
        Fields::Tuple(n) => format!(
            "let mut __it = ::serde::__private::array(__v, {ty_lit}, {n})?; Ok({ty}({}))",
            read_tuple(*n)
        ),
        Fields::Named(fields) if input.attrs.transparent => format!(
            "::serde::Deserialize::from_value(__v).map(|__x| {ty} {{ {}: __x }})",
            fields[0].ident
        ),
        Fields::Named(fields) => {
            let (prelude, d) = match input.attrs.default {
                Some(None) => (
                    format!("let __d: {ty} = ::std::default::Default::default();"),
                    Some("__d"),
                ),
                Some(Some(ref path)) => (format!("let __d: {ty} = {path}();"), Some("__d")),
                None => (String::new(), None),
            };
            format!(
                "let mut __m = ::serde::__private::object(__v, {ty_lit})?; {prelude} Ok({ty} {{ {} }})",
                read_named(fields, d)
            )
        }
    }
}

fn deserialize_enum(input: &Input, variants: &[Variant]) -> String {
    let ty = &input.ident;
    let ty_lit = lit(ty);
    let rule = input.attrs.rename_all.as_deref();
    let mut arms = String::new();
    for v in variants {
        let name = lit(&rename(&v.ident, rule));
        let path = format!("{ty}::{}", v.ident);
        let place = lit(&path);
        let body = match (&input.attrs.tag, &v.fields) {
            (None, Fields::Unit) => format!(
                "::serde::__private::no_content(__c, {ty_lit}, {name})?; Ok({path})"
            ),
            (None, Fields::Tuple(1)) => format!(
                "Ok({path}(::serde::Deserialize::from_value(::serde::__private::content(__c, {ty_lit}, {name})?)?))"
            ),
            (None, Fields::Tuple(n)) => format!(
                "let mut __it = ::serde::__private::array(::serde::__private::content(__c, {ty_lit}, {name})?, {place}, {n})?; Ok({path}({}))",
                read_tuple(*n)
            ),
            (None, Fields::Named(fs)) => format!(
                "let mut __m = ::serde::__private::object(::serde::__private::content(__c, {ty_lit}, {name})?, {place})?; Ok({path} {{ {} }})",
                read_named(fs, None)
            ),
            (Some(_), Fields::Unit) => format!("Ok({path})"),
            (Some(_), Fields::Named(fs)) => format!("Ok({path} {{ {} }})", read_named(fs, None)),
            (Some(_), Fields::Tuple(1)) => format!(
                "Ok({path}(::serde::Deserialize::from_value(::serde::Value::Object(__m))?))"
            ),
            (Some(_), Fields::Tuple(_)) => {
                panic!("serde stand-in: tuple variant `{}` in a tagged enum", v.ident)
            }
        };
        arms += &format!("{name} => {{ {body} }}");
    }
    let head = match &input.attrs.tag {
        None => format!("let (__name, __c) = ::serde::__private::variant(__v, {ty_lit})?;"),
        Some(tag) => format!(
            "let mut __m = ::serde::__private::object(__v, {ty_lit})?;
             let __name = ::serde::__private::tag(&mut __m, {}, {ty_lit})?;",
            lit(tag)
        ),
    };
    format!(
        "{head}
        #[allow(unused_mut, unused_variables)]
        match __name.as_str() {{
            {arms}
            __other => Err(::serde::__private::unknown_variant({ty_lit}, __other)),
        }}"
    )
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let input = parse_input(input);
    let body = match &input.data {
        Data::Struct(fields) => deserialize_struct(&input, fields),
        Data::Enum(variants) => deserialize_enum(&input, variants),
    };
    // A newtype reads its key the way its inner type does, so `Id(u64)`
    // works as a map key like it does under serde_json.
    let from_key = match &input.data {
        Data::Struct(Fields::Tuple(1)) => format!(
            "fn from_key(__k: ::std::string::String) -> ::std::result::Result<Self, ::serde::Error> {{
                ::serde::Deserialize::from_key(__k).map({})
            }}",
            input.ident
        ),
        _ => String::new(),
    };
    format!(
        "#[automatically_derived]
        impl<'de> ::serde::Deserialize<'de> for {ty} {{
            fn from_value(__v: ::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{
                {body}
            }}
            {from_key}
        }}",
        ty = input.ident
    )
    .parse()
    .expect("generated Deserialize impl parses")
}
