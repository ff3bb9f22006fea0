//! JSON text: the string escaper, the pretty printer and the parser.

use crate::value::{Map, Number, Value};
use crate::Error;

/// Appends `s` as a quoted JSON string.
pub fn write_str(s: &str, out: &mut String) {
    out.push('"');
    let bytes = s.as_bytes();
    let mut clean_from = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escape: &str = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0x00..=0x1f => "",
            _ => continue,
        };
        // `i` is the index of an ASCII byte, so both sides are char boundaries.
        out.push_str(&s[clean_from..i]);
        if escape.is_empty() {
            use std::fmt::Write;
            write!(out, "\\u{b:04x}").expect("writing to a String cannot fail");
        } else {
            out.push_str(escape);
        }
        clean_from = i + 1;
    }
    out.push_str(&s[clean_from..]);
    out.push('"');
}

/// Re-indents compact JSON text with two-space indents, as
/// `serde_json::to_string_pretty` lays it out. Working on the text keeps
/// struct fields in declaration order and costs one pass, no tree.
pub fn prettify(compact: &str) -> String {
    fn newline(depth: usize, out: &mut String) {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
    let bytes = compact.as_bytes();
    let mut out = String::with_capacity(compact.len() * 2);
    let mut depth = 0usize;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                // Copy the whole string literal; quotes inside are escaped.
                let start = i;
                i += 1;
                while bytes[i] != b'"' {
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                }
                out.push_str(&compact[start..=i]);
            }
            open @ (b'{' | b'[') => {
                out.push(open as char);
                if matches!(bytes.get(i + 1), Some(b'}' | b']')) {
                    out.push(bytes[i + 1] as char);
                    i += 1;
                } else {
                    depth += 1;
                    newline(depth, &mut out);
                }
            }
            close @ (b'}' | b']') => {
                depth -= 1;
                newline(depth, &mut out);
                out.push(close as char);
            }
            b',' => {
                out.push(',');
                newline(depth, &mut out);
            }
            b':' => out.push_str(": "),
            // Everything else is a scalar's ASCII text.
            other => out.push(other as char),
        }
        i += 1;
    }
    out
}

/// Nesting beyond this is refused rather than risking the stack, as
/// `serde_json` does.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

/// Parses one JSON document; anything but whitespace after it is an error.
pub fn parse(src: &str) -> Result<Value, Error> {
    let mut p = Parser {
        src,
        bytes: src.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

impl Parser<'_> {
    fn err(&self, what: &str) -> Error {
        let upto = &self.bytes[..self.pos.min(self.bytes.len())];
        let line = 1 + upto.iter().filter(|&&b| b == b'\n').count();
        let column = 1 + upto.iter().rev().take_while(|&&b| b != b'\n').count();
        Error::custom(format_args!("{what} at line {line} column {column}"))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("expected value"))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("EOF while parsing a value")),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("expected value")),
        }
    }

    fn nested(&mut self, f: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("recursion limit exceeded"));
        }
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.pos += 1; // [
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                Some(_) => return Err(self.err("expected `,` or `]`")),
                None => return Err(self.err("EOF while parsing a list")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.pos += 1; // {
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("key must be a string"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected `:`"));
            }
            self.pos += 1;
            let v = self.value()?;
            // A repeated key keeps its last value, as in serde_json.
            map.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                Some(_) => return Err(self.err("expected `,` or `}`")),
                None => return Err(self.err("EOF while parsing an object")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("EOF while parsing a string"))?;
        let mut n = 0u32;
        for &d in digits {
            let v = (d as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid escape"))?;
            n = n * 16 + v;
        }
        self.pos += 4;
        Ok(n)
    }

    fn string(&mut self) -> Result<String, Error> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        let mut clean_from = self.pos;
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("EOF while parsing a string"));
            };
            match b {
                b'"' => {
                    // The quote is ASCII, so both ends are char boundaries.
                    out.push_str(&self.src[clean_from..self.pos]);
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    out.push_str(&self.src[clean_from..self.pos]);
                    self.pos += 1;
                    let Some(esc) = self.peek() else {
                        return Err(self.err("EOF while parsing a string"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let mut code = self.hex4()?;
                            if (0xD800..0xDC00).contains(&code) {
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.err("lone leading surrogate in hex escape"));
                                }
                                self.pos += 2;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("lone leading surrogate in hex escape"));
                                }
                                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            }
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode code point")),
                            }
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    clean_from = self.pos;
                }
                0x00..=0x1f => {
                    return Err(self
                        .err("control character (\\u0000-\\u001F) found while parsing a string"))
                }
                _ => self.pos += 1,
            }
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let int_start = self.pos;
        if self.digits() == 0 {
            return Err(self.err("invalid number"));
        }
        if self.bytes[int_start] == b'0' && self.pos - int_start > 1 {
            return Err(self.err("invalid number"));
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("invalid number"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("invalid number"));
            }
        }
        let text = &self.src[start..self.pos];
        if integral {
            if !negative {
                if let Ok(v) = text.parse::<u64>() {
                    return Ok(Value::Number(Number::from(v)));
                }
            } else if let Ok(v) = text.parse::<i64>() {
                // "-0" must stay a float to keep its sign.
                if v != 0 {
                    return Ok(Value::Number(Number::from(v)));
                }
            }
        }
        // Integers beyond 64 bits fall through to the nearest float.
        let v: f64 = text.parse().map_err(|_| self.err("invalid number"))?;
        Number::from_f64(v)
            .map(Value::Number)
            .ok_or_else(|| self.err("number out of range"))
    }
}
