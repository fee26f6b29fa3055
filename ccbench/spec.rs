//! `BENCHMARK.json`, compiled in: the metric names, units, directions and
//! regression bounds the benchmark reports against. Parsed with a small
//! JSON reader so the benchmark needs no dependency beyond the workbench.

use std::collections::BTreeMap;

use crate::stats::valid_metric_name;

/// The repository's benchmark description.
pub const BENCHMARK_JSON: &str = include_str!("../BENCHMARK.json");

/// One declared metric.
#[derive(Clone, Debug)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `true` when a lower value is better.
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the baseline median; `None` for
    /// per-layer metrics, which have no bound.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the program uses.
#[derive(Clone, Debug)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// The compiled-in description. Panics if the file does not parse,
    /// which the unit tests rule out.
    pub fn load() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed")
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let root = Parser::new(text).document()?;
        let metrics = |key: &str, bounded: bool| -> Result<Vec<MetricSpec>, String> {
            root.get(key)?
                .array()?
                .iter()
                .map(|m| {
                    let name = m.get("name")?.string()?;
                    if !valid_metric_name(name) {
                        return Err(format!("metric name {name:?} is not [A-Za-z0-9_.-]+"));
                    }
                    Ok(MetricSpec {
                        name: name.to_string(),
                        unit: m.get("unit")?.string()?.to_string(),
                        lower_is_better: m.get("better")?.string()? == "lower",
                        bound: if bounded {
                            Some(m.get("bound")?.number()?)
                        } else {
                            None
                        },
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: root.get("run_seconds")?.number()? as u64,
            workloads: root
                .get("workloads")?
                .array()?
                .iter()
                .map(|w| Ok(w.get("name")?.string()?.to_string()))
                .collect::<Result<_, String>>()?,
            end_to_end: metrics("end_to_end", true)?,
            per_layer: metrics("per_layer", false)?,
        })
    }

    /// Every declared metric, end-to-end first.
    pub fn all(&self) -> impl Iterator<Item = &MetricSpec> {
        self.end_to_end.iter().chain(&self.per_layer)
    }

    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.all().find(|m| m.name == name)
    }
}

/// `(correct, attempted, failed)` from a result line the benchmark
/// printed; `None` if the line is not one.
pub fn parse_result(line: &str) -> Option<(bool, u64, u64)> {
    let v = Parser::new(line).document().ok()?;
    let correct = matches!(v.get("correct").ok()?, Json::Bool(true));
    let count = |k: &str| v.get(k).and_then(Json::number).ok().map(|x| x as u64);
    Some((correct, count("attempted")?, count("failed")?))
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> Result<&Json, String> {
        match self {
            Json::Object(map) => map.get(key).ok_or_else(|| format!("missing key {key:?}")),
            _ => Err(format!("looked up {key:?} in a non-object")),
        }
    }

    fn array(&self) -> Result<&[Json], String> {
        match self {
            Json::Array(items) => Ok(items),
            other => Err(format!("expected an array, got {other:?}")),
        }
    }

    fn string(&self) -> Result<&str, String> {
        match self {
            Json::String(s) => Ok(s),
            other => Err(format!("expected a string, got {other:?}")),
        }
    }

    fn number(&self) -> Result<f64, String> {
        match self {
            Json::Number(x) => Ok(*x),
            other => Err(format!("expected a number, got {other:?}")),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn document(mut self) -> Result<Json, String> {
        let value = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing data at byte {}", self.pos));
        }
        Ok(value)
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::String),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    /// A string without `\u` escapes, which `BENCHMARK.json` does not use.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        let start = self.pos;
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let escaped = match self.bytes.get(self.pos + 1) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        _ => return Err(format!("unsupported escape at byte {}", self.pos)),
                    };
                    out.push(escaped);
                    self.pos += 2;
                }
                Some(_) => {
                    // Copy one UTF-8 character.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| format!("invalid UTF-8 after byte {start}"))?;
                    let c = rest.chars().next().expect("non-empty remainder");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err(format!("unterminated string from byte {start}")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Number)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_compiled_in_description_parses_and_names_are_valid() {
        let spec = Spec::load();
        assert!(spec.run_seconds >= 1);
        assert_eq!(spec.workloads.len(), 4);
        assert!(spec.metric("setup_s").is_some_and(|m| m.unit == "s"));
        for m in spec.all() {
            assert!(valid_metric_name(&m.name), "{}", m.name);
            assert_eq!(spec.all().filter(|o| o.name == m.name).count(), 1);
        }
    }

    #[test]
    fn parser_handles_nesting_escapes_and_rejects_garbage() {
        let v = Parser::new(r#" {"a": [1, -2.5e1, true, null, {"b": "x\"y"}], "c": {}} "#)
            .document()
            .unwrap();
        let a = v.get("a").unwrap().array().unwrap();
        assert_eq!(a[1], Json::Number(-25.0));
        assert_eq!(a[4].get("b").unwrap().string().unwrap(), "x\"y");
        assert!(Parser::new("{\"a\": 1,}").document().is_err());
        assert!(Parser::new("[1] 2").document().is_err());
        assert!(Parser::new("\"open").document().is_err());
    }
}
