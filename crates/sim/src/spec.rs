//! The clause lexer both spec grammars (`--faults`, `--workload`) share:
//! `;`-separated clauses, each a scalar `key=value` or an event
//! `kind@from..until[:key=value,…]`, trimmed. It knows no key, kind or
//! unit — each grammar owns those and hands [`Event::window`] the parser
//! for its endpoint unit (fault windows are times, workload windows are
//! frame counts).

/// Probabilities are stored in parts-per-million so plans and specs are
/// `Eq`, hashable, and free of float-comparison hazards.
pub const PPM: u64 = 1_000_000;

/// One lexed clause.
#[derive(Debug, PartialEq, Eq)]
pub enum Clause<'a> {
    /// `key=value`.
    Scalar(&'a str, &'a str),
    /// `kind@from..until[:key=value,…]`.
    Event(Event<'a>),
}

/// An event clause: a kind, a raw window and a parameter list.
#[derive(Debug, PartialEq, Eq)]
pub struct Event<'a> {
    /// The kind name.
    pub kind: &'a str,
    window: (&'a str, &'a str),
    params: Vec<(&'a str, &'a str)>,
}

/// The non-empty clauses of `spec`. A clause with an `@` is an event;
/// any other must be `key=value`.
pub fn clauses(spec: &str) -> impl Iterator<Item = Result<Clause<'_>, String>> {
    spec.split(';')
        .map(str::trim)
        .filter(|c| !c.is_empty())
        .map(lex)
}

fn key_value(s: &str) -> Option<(&str, &str)> {
    s.split_once('=').map(|(k, v)| (k.trim(), v.trim()))
}

fn lex(clause: &str) -> Result<Clause<'_>, String> {
    if let Some((k, v)) = key_value(clause).filter(|_| !clause.contains('@')) {
        return Ok(Clause::Scalar(k, v));
    }
    let (head, params) = clause.split_once(':').unwrap_or((clause, ""));
    let (kind, window) = head
        .split_once('@')
        .ok_or_else(|| format!("clause '{clause}' needs '@window'"))?;
    let (from, until) = window
        .split_once("..")
        .ok_or_else(|| format!("window '{window}' needs '..'"))?;
    let params = params
        .split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(|p| key_value(p).ok_or_else(|| format!("parameter '{p}' needs '='")))
        .collect::<Result<_, _>>()?;
    Ok(Clause::Event(Event {
        kind: kind.trim(),
        window: (from.trim(), until.trim()),
        params,
    }))
}

impl<'a> Event<'a> {
    /// The window `[from, until)`, each endpoint read by `endpoint`; an
    /// empty start is `zero`, an empty end is `end`, and a window that
    /// does not end after it starts is an error.
    pub fn window<T: Ord>(
        &self,
        zero: T,
        end: T,
        endpoint: impl Fn(&str) -> Result<T, String>,
    ) -> Result<(T, T), String> {
        let (a, b) = self.window;
        let read = |s: &str, empty: T| if s.is_empty() { Ok(empty) } else { endpoint(s) };
        let (from, until) = (read(a, zero)?, read(b, end)?);
        if until <= from {
            return Err(format!("empty window '{a}..{b}'"));
        }
        Ok((from, until))
    }

    /// Rejects any parameter whose key is not in `allowed`.
    pub fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.params.iter().find(|(k, _)| !allowed.contains(k)) {
            Some((k, _)) => Err(format!("unknown parameter '{k}' for '{}'", self.kind)),
            None => Ok(()),
        }
    }

    /// The value of parameter `key` (the first, if repeated).
    pub fn param(&self, key: &str) -> Result<&'a str, String> {
        self.params
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("'{}' needs {key}=", self.kind))
    }
}

/// The canonical `from..until` of a window, the inverse of
/// [`Event::window`]: an endpoint at its open default prints empty.
pub fn fmt_window<T: PartialEq>(
    (from, until): (T, T),
    (zero, end): (T, T),
    fmt: impl Fn(T) -> String,
) -> String {
    let show = |t: T, open: T| if t == open { String::new() } else { fmt(t) };
    format!("{}..{}", show(from, zero), show(until, end))
}

/// `1000`, `64k`, `10M` (k = 1000, M = 1000000), or hex with `0x`.
pub fn parse_count(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        return u64::from_str_radix(hex, 16).ok();
    }
    let (num, mul) = if let Some(v) = s.strip_suffix(['k', 'K']) {
        (v, 1_000u64)
    } else if let Some(v) = s.strip_suffix('M') {
        (v, 1_000_000)
    } else {
        (s, 1)
    };
    num.parse::<u64>().ok()?.checked_mul(mul)
}

/// `0.01` (a probability) or `1500ppm`, in parts per million.
pub fn parse_rate(s: &str) -> Option<u32> {
    if let Some(p) = s.strip_suffix("ppm") {
        return p.parse::<u32>().ok().filter(|&p| u64::from(p) <= PPM);
    }
    let f: f64 = s.parse().ok()?;
    (0.0..=1.0)
        .contains(&f)
        .then(|| (f * PPM as f64).round() as u32)
}
