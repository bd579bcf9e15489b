//! Runs every workload of `BENCHMARK.json` at smoke size, untraced and
//! traced, and checks the output contract: every metric the file names
//! prints with its unit and a finite value, the run reports itself
//! correct, and the trace file parses.

use std::process::Command;

/// A parsed JSON value; just enough JSON for this test.
#[derive(Debug)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing bytes after the JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => {
                &fields
                    .iter()
                    .find(|(k, _)| k == key)
                    .unwrap_or_else(|| panic!("no key {key:?}"))
                    .1
            }
            other => panic!("not an object: {other:?}"),
        }
    }

    fn has(&self, key: &str) -> bool {
        matches!(self, Json::Obj(fields) if fields.iter().any(|(k, _)| k == key))
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at byte {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(fields);
                }
                loop {
                    self.ws();
                    let key = self.string();
                    self.eat(b':');
                    fields.push((key, self.value()));
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b'}' => return Json::Obj(fields),
                        c => panic!("unexpected {:?} in object", c as char),
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b']' => return Json::Arr(items),
                        c => panic!("unexpected {:?} in array", c as char),
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' => self.word("true", Json::Bool(true)),
            b'f' => self.word("false", Json::Bool(false)),
            b'n' => self.word("null", Json::Null),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ASCII number");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Json {
        assert!(self.s[self.i..].starts_with(w.as_bytes()), "expected {w}");
        self.i += w.len();
        v
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            let c = self.s[self.i];
            self.i += 1;
            match c {
                b'"' => return out,
                b'\\' => {
                    let e = self.s[self.i];
                    self.i += 1;
                    out.push(match e {
                        b'n' => '\n',
                        b't' => '\t',
                        other => other as char,
                    });
                }
                _ => out.push(c as char),
            }
        }
    }
}

/// Runs one workload at smoke size; returns its standard output.
fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ecco-benchmark"))
        .args(["--workload", workload, "--seed", "1", "--seconds", "0.2"])
        .args(["--trace", &trace.to_string(), "--scale", "smoke"])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

#[test]
fn every_workload_prints_every_metric_and_a_parsable_trace() {
    let spec_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = Json::parse(&std::fs::read_to_string(spec_path).expect("read BENCHMARK.json"));
    for workload in spec.get("workloads").arr() {
        let workload = workload.get("name").str();
        for (trace, list) in [(0u8, "end_to_end"), (1, "per_layer")] {
            let stdout = run(workload, trace);
            let result = Json::parse(stdout.lines().last().expect("a last line"));
            assert!(
                matches!(result.get("correct"), Json::Bool(true)),
                "{workload}: {stdout}"
            );
            assert!(result.get("attempted").num() >= 1.0);
            assert_eq!(result.get("failed").num(), 0.0);
            let metrics = result.get("metrics");
            for metric in spec.get(list).arr() {
                let (name, unit) = (metric.get("name").str(), metric.get("unit").str());
                assert!(metrics.has(name), "{workload} --trace {trace}: no {name}");
                let m = metrics.get(name);
                assert_eq!(m.get("unit").str(), unit, "{workload}: unit of {name}");
                assert!(m.get("value").num().is_finite(), "{workload}: {name}");
                let line = stdout
                    .lines()
                    .find(|l| l.split(' ').next() == Some(name))
                    .unwrap_or_else(|| panic!("{workload}: no line for {name}"));
                let fields: Vec<&str> = line.split(' ').collect();
                assert_eq!(fields.len(), 3, "{line}");
                assert!(fields[1].parse::<f64>().is_ok_and(f64::is_finite), "{line}");
                assert_eq!(fields[2], unit, "{line}");
            }
            if trace == 1 {
                let path = stdout
                    .lines()
                    .find_map(|l| l.strip_prefix("# trace_file "))
                    .expect("the traced run names its trace file");
                let trace = Json::parse(&std::fs::read_to_string(path).expect("read the trace"));
                assert_eq!(trace.get("workload").str(), workload);
                let spans = trace.get("spans").arr();
                assert!(!spans.is_empty(), "{workload}: no spans");
                for key in ["id", "parent", "session", "name", "start_ns", "end_ns"] {
                    assert!(spans[0].has(key), "{workload}: span without {key}");
                }
            }
        }
    }
}
