//! One flat benchmark summary and its baseline gate.
//!
//! Every CI-gated `reproduce` target writes its result as one line of
//! JSON: a flat object of strings, numbers and booleans in a fixed key
//! order. [`Summary`] builds that line, parses it back, and re-renders a
//! parsed line byte for byte, because it keeps every value as the JSON
//! token it was written as. A target declares its gate once, as one
//! [`Rule`] per gated field; every other field is recorded, not gated.
//! [`Summary::publish`] writes the line and, when a committed baseline is
//! named, checks every rule against it.
//!
//! Std-only: the workspace vendors no serde.

use std::fmt;

/// A benchmark run's summary: a flat JSON object whose fields keep the
/// order they were added or parsed in. `Display` renders it as one line.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// `(key, value)` pairs, each value a JSON string, number or boolean
    /// token as written.
    fields: Vec<(String, String)>,
}

impl Summary {
    /// A summary whose first field is `"workload"`.
    pub fn new(workload: &str) -> Summary {
        Summary { fields: Vec::new() }.str("workload", workload)
    }

    /// Appends a string field.
    ///
    /// # Panics
    ///
    /// If `value` holds a quote, a backslash or a control character:
    /// summaries hold names the program chooses and write no escapes.
    pub fn str(self, key: &str, value: &str) -> Summary {
        assert!(
            !value.contains(|c: char| c == '"' || c == '\\' || c.is_control()),
            "summary string {value:?} would need an escape"
        );
        self.push(key, format!("\"{value}\""))
    }

    /// Appends an integer field.
    pub fn int(self, key: &str, value: usize) -> Summary {
        self.push(key, value.to_string())
    }

    /// Appends a fingerprint: a string holding `value` in lower-case hex
    /// with a `0x` prefix.
    pub fn hex(self, key: &str, value: u64) -> Summary {
        self.push(key, format!("\"{value:#x}\""))
    }

    /// Appends a number written with exactly `decimals` decimal places.
    pub fn float(self, key: &str, value: f64, decimals: usize) -> Summary {
        self.push(key, format!("{value:.decimals$}"))
    }

    /// Appends a boolean field.
    pub fn bool(self, key: &str, value: bool) -> Summary {
        self.push(key, value.to_string())
    }

    fn push(mut self, key: &str, token: String) -> Summary {
        self.fields.push((key.to_string(), token));
        self
    }

    /// The JSON token under `key`, quotes included for a string.
    fn get(&self, key: &str) -> Option<&str> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, token)| token.as_str())
    }

    /// Parses one flat, non-empty JSON object, surrounding whitespace
    /// allowed. Nested objects and arrays, `null`, string escapes and any
    /// text after the closing brace are errors.
    pub fn parse(text: &str) -> Result<Summary, String> {
        let mut rest = text.trim().strip_prefix('{').ok_or("expected `{`")?;
        let mut fields = Vec::new();
        loop {
            let (key, after) = string(rest.trim_start()).map_err(|e| format!("key: {e}"))?;
            let key = key.trim_matches('"');
            let after = after.trim_start().strip_prefix(':');
            let after = after.ok_or_else(|| format!("expected `:` after \"{key}\""))?;
            let (token, after) =
                value(after.trim_start()).map_err(|e| format!("\"{key}\": {e}"))?;
            fields.push((key.to_string(), token.to_string()));
            rest = after.trim_start();
            if rest == "}" {
                return Ok(Summary { fields });
            }
            let comma = rest.strip_prefix(',');
            rest = comma.ok_or_else(|| format!("expected `,` or a final `}}` after \"{key}\""))?;
        }
    }

    /// Checks this summary against `baseline` under `rules` and returns one
    /// `REGRESSION:` line per failing rule, empty when the gate passes.
    /// `label` names the baseline in each line, e.g. its path.
    pub fn regressions(&self, baseline: &Summary, label: &str, rules: &[Rule]) -> Vec<String> {
        rules.iter().filter_map(|rule| rule.check(self, baseline, label).err()).collect()
    }

    /// Writes the summary as one line to the file named by `SFA_BENCH_OUT`
    /// (default `default_out`). When `SFA_BENCH_BASELINE` names a
    /// committed baseline, gates the summary against it: prints one
    /// `REGRESSION:` line per failing rule to stderr and exits with
    /// status 1, or confirms that the check passed.
    pub fn publish(&self, default_out: &str, rules: &[Rule]) {
        let out = std::env::var("SFA_BENCH_OUT").unwrap_or_else(|_| default_out.into());
        std::fs::write(&out, format!("{self}\n")).expect("write benchmark summary");
        println!("wrote {out}");
        let Ok(path) = std::env::var("SFA_BENCH_BASELINE") else { return };
        let text = std::fs::read_to_string(&path).expect("read benchmark baseline");
        let failures = match Summary::parse(&text) {
            Ok(baseline) => self.regressions(&baseline, &path, rules),
            Err(why) => vec![format!("REGRESSION: baseline {path} does not parse: {why}")],
        };
        for line in &failures {
            eprintln!("{line}");
        }
        if !failures.is_empty() {
            std::process::exit(1);
        }
        println!("baseline check passed against {path}");
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, (key, token)) in self.fields.iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            write!(f, "{comma}\"{key}\":{token}")?;
        }
        f.write_str("}")
    }
}

/// Splits a leading string without escapes, quotes included, off `s`.
fn string(s: &str) -> Result<(&str, &str), String> {
    let body = s.strip_prefix('"').ok_or("expected a string")?;
    let end = body.find(['"', '\\']).ok_or("unterminated string")?;
    if body[end..].starts_with('\\') {
        return Err("string escapes are not supported".into());
    }
    Ok(s.split_at(end + 2))
}

/// Splits a leading string, number or boolean token off `s`.
fn value(s: &str) -> Result<(&str, &str), String> {
    if s.starts_with('"') {
        return string(s);
    }
    let end = s.find(|c: char| !c.is_ascii_alphanumeric() && !"+-.".contains(c));
    let (token, rest) = s.split_at(end.unwrap_or(s.len()));
    let number = token.starts_with(|c: char| c == '-' || c.is_ascii_digit())
        && token.chars().all(|c| c.is_ascii_digit() || "+-.eE".contains(c))
        && token.parse::<f64>().is_ok();
    if number || token == "true" || token == "false" {
        Ok((token, rest))
    } else {
        Err("expected a string, a number or a boolean".into())
    }
}

/// How a gated field compares with the baseline.
#[derive(Clone, Copy, Debug)]
enum Bound {
    Exact,
    AtLeast { share: f64, floor: f64 },
}

/// One gated field of a summary and the rule its value must meet.
#[derive(Clone, Copy, Debug)]
pub struct Rule {
    field: &'static str,
    bound: Bound,
    skip_if: Option<(&'static str, &'static str)>,
}

impl Rule {
    /// `field` must equal the baseline's value: for deterministic facts
    /// such as sizes, counts and fingerprints.
    pub const fn exact(field: &'static str) -> Rule {
        Rule { field, bound: Bound::Exact, skip_if: None }
    }

    /// `field` must be a number ≥ max(`share` × baseline, `floor`): a noise
    /// margin around the committed value that never drops below a hard
    /// floor. With `share` 0 the floor alone decides and the baseline need
    /// not carry the field.
    pub const fn at_least(field: &'static str, share: f64, floor: f64) -> Rule {
        Rule { field, bound: Bound::AtLeast { share, floor }, skip_if: None }
    }

    /// The same rule, skipped when the current summary's `field` reads
    /// `value` (a string's contents, or a number or boolean as written).
    pub const fn skip_if(self, field: &'static str, value: &'static str) -> Rule {
        Rule { skip_if: Some((field, value)), ..self }
    }

    fn check(&self, now: &Summary, baseline: &Summary, label: &str) -> Result<(), String> {
        let field = self.field;
        if let Some((key, value)) = self.skip_if {
            if now.get(key).is_some_and(|token| token.trim_matches('"') == value) {
                return Ok(());
            }
        }
        let missing =
            |which: &str| format!("REGRESSION: {field} is missing from the {which} ({label})");
        let current = now.get(field).ok_or_else(|| missing("summary"))?;
        let was = baseline.get(field).ok_or_else(|| missing("baseline"));
        let number = |token: &str| {
            let bad = || format!("REGRESSION: {field} = {token} is not a number ({label})");
            token.parse::<f64>().map_err(|_| bad())
        };
        match self.bound {
            Bound::Exact => {
                let was = was?;
                if current == was {
                    return Ok(());
                }
                Err(format!("REGRESSION: {field} = {current}, baseline {was} ({label})"))
            }
            Bound::AtLeast { share, floor } => {
                let (min, context) = if share == 0.0 {
                    (floor, String::new())
                } else {
                    let was = was?;
                    ((share * number(was)?).max(floor), format!("baseline {was}, "))
                };
                if number(current)? >= min {
                    return Ok(());
                }
                Err(format!("REGRESSION: {field} = {current}, needs ≥ {min:.2} ({context}{label})"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn built_summary_renders_one_line_and_parses_back() {
        let summary = Summary::new("demo")
            .int("rules", 1000)
            .hex("fingerprint", 0x4fce)
            .float("ratio", 2.0 / 3.0, 3)
            .float("ms", 1.5, 2)
            .bool("simd", true)
            .str("cpu_features", "ssse3+avx2");
        let line = summary.to_string();
        assert_eq!(
            line,
            "{\"workload\":\"demo\",\"rules\":1000,\"fingerprint\":\"0x4fce\",\"ratio\":0.667,\
             \"ms\":1.50,\"simd\":true,\"cpu_features\":\"ssse3+avx2\"}"
        );
        assert_eq!(Summary::parse(&line), Ok(summary.clone()));
        assert_eq!(Summary::parse(&format!(" {line}\n")), Ok(summary));
        // Spacing is accepted; numbers keep their text.
        let spaced = Summary::parse("{ \"a\" : 1.50 , \"b\" : false }").unwrap();
        assert_eq!(spaced.to_string(), "{\"a\":1.50,\"b\":false}");
    }

    #[test]
    fn malformed_summaries_are_errors_not_panics() {
        let line = Summary::new("demo").int("n", 3).float("r", 0.5, 3).to_string();
        for end in 0..line.len() {
            assert!(Summary::parse(&line[..end]).is_err(), "truncated {:?}", &line[..end]);
        }
        for bad in [
            "multimatch",
            "{}",
            "{\"a\":{\"b\":1}}",
            "{\"a\":[1]}",
            "{\"a\":null}",
            "{\"a\":1,}",
            "{\"a\":1} {\"b\":2}",
            "{a:1}",
            "{\"a\":\"x\\\"y\"}",
            "{\"a\":1.2.3}",
            "{\"a\":-inf}",
            "{\"é\":1 ü}",
        ] {
            assert!(Summary::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    #[should_panic(expected = "would need an escape")]
    fn strings_that_need_escapes_are_refused() {
        let _ = Summary::new("demo").str("name", "a\"b");
    }
}
