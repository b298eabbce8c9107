//! A small JSON reader for the tests (the crate itself only writes JSON).

#![allow(dead_code)] // each test file uses its own part of it

use std::collections::BTreeMap;

#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Number(f64),
    Text(String),
    List(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

impl Json {
    pub fn parse(text: &str) -> Json {
        let bytes = text.as_bytes();
        let mut at = 0;
        let value = parse_value(bytes, &mut at);
        skip_space(bytes, &mut at);
        assert_eq!(at, bytes.len(), "trailing text after JSON value");
        value
    }

    pub fn get(&self, key: &str) -> &Json {
        match self {
            Json::Object(fields) => fields
                .get(key)
                .unwrap_or_else(|| panic!("no field {key:?}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    pub fn fields(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Object(fields) => fields,
            other => panic!("not an object: {other:?}"),
        }
    }

    pub fn list(&self) -> &[Json] {
        match self {
            Json::List(items) => items,
            other => panic!("not a list: {other:?}"),
        }
    }

    pub fn number(&self) -> f64 {
        match self {
            Json::Number(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }

    pub fn text(&self) -> &str {
        match self {
            Json::Text(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }
}

fn skip_space(bytes: &[u8], at: &mut usize) {
    while *at < bytes.len() && bytes[*at].is_ascii_whitespace() {
        *at += 1;
    }
}

fn expect(bytes: &[u8], at: &mut usize, byte: u8) {
    skip_space(bytes, at);
    assert_eq!(
        bytes.get(*at),
        Some(&byte),
        "expected {:?} at {at}",
        byte as char
    );
    *at += 1;
}

fn parse_value(bytes: &[u8], at: &mut usize) -> Json {
    skip_space(bytes, at);
    match bytes[*at] {
        b'{' => {
            *at += 1;
            let mut fields = BTreeMap::new();
            skip_space(bytes, at);
            if bytes[*at] == b'}' {
                *at += 1;
                return Json::Object(fields);
            }
            loop {
                skip_space(bytes, at);
                let key = parse_text(bytes, at);
                expect(bytes, at, b':');
                let previous = fields.insert(key.clone(), parse_value(bytes, at));
                assert!(previous.is_none(), "duplicate key {key:?}");
                skip_space(bytes, at);
                *at += 1;
                match bytes[*at - 1] {
                    b',' => continue,
                    b'}' => return Json::Object(fields),
                    other => panic!("unexpected {:?} in object", other as char),
                }
            }
        }
        b'[' => {
            *at += 1;
            let mut items = Vec::new();
            skip_space(bytes, at);
            if bytes[*at] == b']' {
                *at += 1;
                return Json::List(items);
            }
            loop {
                items.push(parse_value(bytes, at));
                skip_space(bytes, at);
                *at += 1;
                match bytes[*at - 1] {
                    b',' => continue,
                    b']' => return Json::List(items),
                    other => panic!("unexpected {:?} in list", other as char),
                }
            }
        }
        b'"' => Json::Text(parse_text(bytes, at)),
        b't' | b'f' | b'n' => {
            for (word, value) in [
                ("true", Json::Bool(true)),
                ("false", Json::Bool(false)),
                ("null", Json::Null),
            ] {
                if bytes[*at..].starts_with(word.as_bytes()) {
                    *at += word.len();
                    return value;
                }
            }
            panic!("bad literal at {at}");
        }
        _ => {
            let start = *at;
            while *at < bytes.len()
                && matches!(bytes[*at], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                *at += 1;
            }
            let text = std::str::from_utf8(&bytes[start..*at]).expect("ascii number");
            Json::Number(
                text.parse()
                    .unwrap_or_else(|_| panic!("bad number {text:?}")),
            )
        }
    }
}

fn parse_text(bytes: &[u8], at: &mut usize) -> String {
    assert_eq!(bytes[*at], b'"');
    *at += 1;
    let start = *at;
    while bytes[*at] != b'"' {
        // The benchmark writes no escapes; a backslash would be a bug.
        assert_ne!(bytes[*at], b'\\', "escape sequences are not expected");
        *at += 1;
    }
    *at += 1;
    String::from_utf8(bytes[start..*at - 1].to_vec()).expect("utf-8 string")
}
