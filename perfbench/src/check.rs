//! Answer checks: the daemon's answers against the same computation done
//! in-process, and the live scheduler's answers for consistency.

use std::collections::HashMap;

use hecmix_obs::json::{self, Value};
use hecmix_serve::api::{compute_plan, format_response};
use hecmix_serve::ModelStore;

use crate::gen::PlanReq;

/// Fields that legitimately differ between two answers to one question.
const VOLATILE: [&str; 3] = ["cached", "coalesced", "compute_us"];

/// Parse an answer body and drop the [`VOLATILE`] fields.
///
/// # Errors
/// Bodies that are not UTF-8 JSON.
pub fn normalize(body: &[u8]) -> Result<Value, String> {
    let text = std::str::from_utf8(body).map_err(|_| "answer is not UTF-8".to_owned())?;
    let v = json::parse(text).map_err(|e| format!("answer is not JSON: {e}"))?;
    Ok(match v {
        Value::Object(fields) => Value::Object(
            fields
                .into_iter()
                .filter(|(k, _)| !VOLATILE.contains(&k.as_str()))
                .collect(),
        ),
        other => other,
    })
}

/// Expected answers, computed in-process once per distinct request body.
pub struct Oracle<'a> {
    store: &'a ModelStore,
    memo: HashMap<String, Value>,
}

impl<'a> Oracle<'a> {
    /// An oracle over `store` (built the same way as the daemons').
    #[must_use]
    pub fn new(store: &'a ModelStore) -> Self {
        Self {
            store,
            memo: HashMap::new(),
        }
    }

    /// The normalized answer the daemon must give to `req`.
    ///
    /// # Errors
    /// A compute the daemon would have rejected (the workloads are chosen
    /// so that none is).
    pub fn expected(&mut self, req: &PlanReq) -> Result<&Value, String> {
        if !self.memo.contains_key(&req.body) {
            let (_, plan) = compute_plan(&req.spec, self.store)
                .map_err(|r| format!("in-process compute failed: {}", r.body))?;
            let resp = format_response(&req.ctx, self.store, &plan, false, false, 0);
            let v = normalize(resp.body.as_bytes())?;
            self.memo.insert(req.body.clone(), v);
        }
        Ok(&self.memo[&req.body])
    }

    /// Check one answer; `Err` describes the mismatch.
    ///
    /// # Errors
    /// A non-200 status or an answer differing from the in-process one.
    pub fn check(&mut self, req: &PlanReq, status: u16, body: &[u8]) -> Result<(), String> {
        if status != 200 {
            return Err(format!("{} answered {status}", req.path));
        }
        let got = normalize(body)?;
        let want = self.expected(req)?;
        if &got == want {
            Ok(())
        } else {
            Err(format!(
                "{} {} differs from the in-process answer",
                req.path, req.body
            ))
        }
    }
}

/// Check one `/submit` answer: admitted with a 200, `finish_s ≥ start_s`
/// and `energy_j ≥ 0`.
///
/// # Errors
/// The first inconsistency found.
pub fn check_submit(status: u16, body: &[u8]) -> Result<(), String> {
    if status != 200 {
        return Err(format!("/submit answered {status}"));
    }
    let v = normalize(body)?;
    let f = |k: &str| v.get(k).and_then(Value::as_f64);
    if v.get("admitted").and_then(Value::as_bool) != Some(true) {
        return Err("/submit did not admit the job".into());
    }
    match (f("start_s"), f("finish_s"), f("energy_j")) {
        (Some(start), Some(finish), Some(energy)) if finish >= start && energy >= 0.0 => Ok(()),
        _ => Err(format!(
            "/submit placement is inconsistent: {}",
            String::from_utf8_lossy(body)
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_drops_only_volatile_fields() {
        let a = normalize(br#"{"x":1,"cached":true,"compute_us":5,"coalesced":false}"#).unwrap();
        let b = normalize(br#"{"x":1,"cached":false,"compute_us":900,"coalesced":true}"#).unwrap();
        assert_eq!(a, b);
        let c = normalize(br#"{"x":2,"cached":true}"#).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn submit_consistency() {
        let ok = br#"{"admitted":true,"start_s":1.0,"finish_s":2.0,"energy_j":3.0}"#;
        assert!(check_submit(200, ok).is_ok());
        let backwards = br#"{"admitted":true,"start_s":2.0,"finish_s":1.0,"energy_j":3.0}"#;
        assert!(check_submit(200, backwards).is_err());
        assert!(check_submit(429, br#"{"admitted":false}"#).is_err());
    }
}
