//! Runs every workload at smoke size and checks the printed result
//! against `BENCHMARK.json`: every metric present with its unit, every
//! check passing, and a digest that ignores the worker count but not
//! the seed.

use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["torus_sweep", "storm_observed", "app_traces"];

/// A parsed JSON value (just enough of JSON for these files).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing characters in {text}");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object: {self:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
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
        assert_eq!(self.s[self.i], c, "expected {} at {}", c as char, self.i);
        self.i += 1;
    }

    /// Consumes the `,` after a list element (false) or the list's
    /// closing `close` (true).
    fn end_of(&mut self, close: u8) -> bool {
        self.ws();
        let c = self.s[self.i];
        self.i += 1;
        assert!(
            c == b',' || c == close,
            "expected , or {} at {}",
            close as char,
            self.i
        );
        c == close
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key")
                    };
                    self.eat(b':');
                    assert!(
                        m.insert(k.clone(), self.value()).is_none(),
                        "duplicate key {k}"
                    );
                    if self.end_of(b'}') {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    if self.end_of(b']') {
                        return Json::Arr(v);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not expected here");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap())
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-0123456789.eE".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

/// `name -> unit` for one metric list of BENCHMARK.json.
fn declared(list: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let bench = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"));
    let Json::Arr(metrics) = bench.get(list) else {
        panic!("{list} is not a list")
    };
    metrics
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

struct Run {
    result: Json,
    digest: String,
}

fn run(workload: &str, seed: u64, trace: bool, workers: Option<usize>) -> Run {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        "1",
    ])
    .args(["--trace", if trace { "1" } else { "0" }, "--scale", "smoke"]);
    if let Some(w) = workers {
        cmd.args(["--workers", &w.to_string()]);
    }
    let out = cmd.output().expect("run perfbench");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    let digest = lines
        .iter()
        .find_map(|l| l.strip_prefix("digest "))
        .expect("a digest line")
        .to_string();
    Run {
        result: Json::parse(lines.last().expect("a result line")),
        digest,
    }
}

fn assert_result(workload: &str, r: &Json, expected: &BTreeMap<String, String>) {
    assert_eq!(r.get("correct"), &Json::Bool(true), "{workload}: {r:?}");
    assert_eq!(r.get("failed"), &Json::Num(0.0), "{workload}");
    assert!(
        matches!(r.get("attempted"), Json::Num(n) if *n >= 1.0),
        "{workload}"
    );
    let Json::Obj(metrics) = r.get("metrics") else {
        panic!("metrics")
    };
    let printed: Vec<&String> = metrics.keys().collect();
    let wanted: Vec<&String> = expected.keys().collect();
    assert_eq!(printed, wanted, "{workload}: metric names");
    for (name, unit) in expected {
        let m = &metrics[name];
        assert_eq!(m.get("unit").str(), unit, "{workload}: unit of {name}");
        assert!(
            matches!(m.get("value"), Json::Num(v) if v.is_finite()),
            "{workload}: {name}"
        );
    }
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    let (end_to_end, per_layer) = (declared("end_to_end"), declared("per_layer"));
    for w in WORKLOADS {
        assert_result(w, &run(w, 7, false, None).result, &end_to_end);
        assert_result(w, &run(w, 7, true, None).result, &per_layer);
    }
}

#[test]
fn digest_ignores_worker_count_but_not_seed() {
    for w in WORKLOADS {
        let pooled = run(w, 11, false, None);
        assert_eq!(run(w, 11, false, Some(1)).digest, pooled.digest, "{w}");
        assert_eq!(
            run(w, 11, true, None).digest,
            pooled.digest,
            "{w}: traced run"
        );
        assert_ne!(run(w, 12, false, None).digest, pooled.digest, "{w}: seed");
    }
}
