//! Newline-delimited JSON wire protocol.
//!
//! One request per line, one response per line. Every request is an object
//! with an `op` field:
//!
//! | op          | fields                         | response body              |
//! |-------------|--------------------------------|----------------------------|
//! | `ping`      | —                              | `{"pong": true}`           |
//! | `submit`    | `job` (see [`JobSpec`])        | `{"id", "state"}`          |
//! | `status`    | `id`                           | `{"id", "state", ...}`     |
//! | `result`    | `id`                           | `{"id", "result"}`         |
//! | `cancel`    | `id`                           | `{"id", "cancelled"}`      |
//! | `stats`     | —                              | engine statistics          |
//! | `metrics`   | —                              | `{"metrics": "<text>"}`    |
//! | `graphs`    | —                              | `{"graphs": [...]}`        |
//! | `load`      | `name`, `path`                 | `{"name", "epoch"}`        |
//! | `drain`     | —                              | `{"draining", "bounced"}`  |
//! | `shutdown`  | —                              | `{"stopping": true}`       |
//!
//! Responses are `{"ok": true, ...body}` or
//! `{"ok": false, "error": {"code", "message"}}`. Error codes:
//! `bad_request`, `unknown_graph`, `overloaded`, `deadline_unmeetable`,
//! `quota_exceeded`, `shed`, `draining`, `shutting_down`, `not_found`,
//! `not_ready`, `internal`, `load_failed`, `parse_error`.
//! `parse_error` additionally carries 1-based `line` and `column` fields
//! locating the malformed input. Load-related rejections (`overloaded`,
//! `deadline_unmeetable`, `quota_exceeded`, `shed`) carry a
//! `retry_after_ms` hint — an honest prediction of when retrying might
//! succeed — and `draining` means *this* server won't take the job at
//! all: replay it elsewhere via the request key.
//!
//! Submissions are attributed to a client identity for per-client quotas:
//! the job's own `client` field if set, else the connection tag the
//! server passes to [`handle_request_from`].

use crate::engine::{Engine, JobResult, JobState, SubmitError};
use crate::job::JobSpec;
use crate::registry::LoadError;
use fairsqg_wire::Value;
use std::sync::Arc;

/// Builds the error response for `code`/`message`.
pub fn error_response(code: &'static str, message: &str) -> Value {
    Value::object([
        ("ok", Value::from(false)),
        (
            "error",
            Value::object([
                ("code", Value::from(code)),
                ("message", Value::from(message)),
            ]),
        ),
    ])
}

/// Like [`error_response`], with the `retry_after_ms` hint rejections
/// carry.
pub fn retry_response(code: &'static str, message: &str, retry_after_ms: u64) -> Value {
    Value::object([
        ("ok", Value::from(false)),
        (
            "error",
            Value::object([
                ("code", Value::from(code)),
                ("message", Value::from(message)),
                ("retry_after_ms", Value::from(retry_after_ms)),
            ]),
        ),
    ])
}

fn ok_response(mut body: Vec<(&'static str, Value)>) -> Value {
    let mut pairs = vec![("ok", Value::from(true))];
    pairs.append(&mut body);
    Value::object(pairs)
}

/// The `ok` response to an accepted submission.
pub(crate) fn submit_ok_response(engine: &Engine, id: u64) -> Value {
    let state = engine.status(id).map_or(JobState::Queued, |s| s.state);
    ok_response(vec![
        ("id", Value::from(id)),
        ("state", Value::from(state.name())),
    ])
}

/// Maps a [`SubmitError`] to its wire response, so plain and streaming
/// submits reject with identical shapes (codes, `retry_after_ms` hints).
pub(crate) fn submit_error_response(err: &SubmitError) -> Value {
    match err {
        SubmitError::Overloaded {
            capacity,
            retry_after_ms,
        } => retry_response(
            "overloaded",
            &format!("queue full ({capacity} jobs); retry later"),
            *retry_after_ms,
        ),
        SubmitError::DeadlineUnmeetable {
            deadline_ms,
            predicted_ms,
            retry_after_ms,
        } => retry_response(
            "deadline_unmeetable",
            &format!(
                "predicted completion {predicted_ms}ms exceeds the \
                 {deadline_ms}ms deadline; not admitting"
            ),
            *retry_after_ms,
        ),
        SubmitError::QuotaExceeded {
            client,
            limit,
            retry_after_ms,
        } => retry_response(
            "quota_exceeded",
            &format!("client '{client}' already has {limit} unsettled jobs"),
            *retry_after_ms,
        ),
        SubmitError::Shed { retry_after_ms } => retry_response(
            "shed",
            "shed under overload: priority below the shedding threshold",
            *retry_after_ms,
        ),
        SubmitError::UnknownGraph(name) => {
            error_response("unknown_graph", &format!("no graph named '{name}'"))
        }
        SubmitError::Draining => error_response(
            "draining",
            "server is draining; replay via your request key elsewhere",
        ),
        SubmitError::ShuttingDown => error_response("shutting_down", "engine is draining"),
        SubmitError::BadRequest(m) => error_response("bad_request", m),
        SubmitError::Internal(m) => error_response("internal", m),
    }
}

fn status_body(engine: &Engine, id: u64) -> Option<Vec<(&'static str, Value)>> {
    let s = engine.status(id)?;
    let mut body = vec![
        ("id", Value::from(s.id)),
        ("state", Value::from(s.state.name())),
        ("from_cache", Value::from(s.from_cache)),
        ("truncated", Value::from(s.truncated)),
    ];
    if let Some(e) = s.error {
        body.push(("error_message", Value::from(e)));
    }
    Some(body)
}

/// A response to one request. A `Done` job's `result` reply shares the
/// result instead of copying it into a [`Value`]: the server writes it
/// from the borrowed result.
#[derive(Debug)]
pub enum Reply {
    /// A response built as a value.
    Value(Value),
    /// `{"ok": true, "id", "from_cache", "result"}`.
    Result {
        /// The job id.
        id: u64,
        /// Whether the result came from the cross-request cache.
        from_cache: bool,
        /// The job's result.
        result: Arc<JobResult>,
    },
}

/// Handles one parsed request against the engine, stamping submissions
/// that carry no explicit `client` field with `client_tag` (the server's
/// per-connection identity), so per-client quotas apply to anonymous
/// submitters too. Returns the reply and whether the server should begin
/// shutting down.
pub fn handle_request_from(
    engine: &Engine,
    request: &Value,
    client_tag: Option<&str>,
) -> (Reply, bool) {
    let Some(op) = request.get("op").and_then(Value::as_str) else {
        return (
            Reply::Value(error_response("bad_request", "missing 'op'")),
            false,
        );
    };
    let id_field = || {
        request
            .get("id")
            .and_then(Value::as_u64)
            .ok_or_else(|| error_response("bad_request", "missing 'id'"))
    };
    let response = match op {
        "ping" => ok_response(vec![("pong", Value::from(true))]),
        "submit" => {
            let Some(job) = request.get("job") else {
                return (
                    Reply::Value(error_response("bad_request", "missing 'job'")),
                    false,
                );
            };
            match JobSpec::from_value(job) {
                Err(m) => error_response("bad_request", &m),
                Ok(mut spec) => {
                    if spec.client.is_none() {
                        spec.client = client_tag.map(str::to_string);
                    }
                    match engine.submit(spec) {
                        Ok(id) => submit_ok_response(engine, id),
                        Err(e) => submit_error_response(&e),
                    }
                }
            }
        }
        "status" => match id_field() {
            Err(e) => e,
            Ok(id) => match status_body(engine, id) {
                Some(body) => ok_response(body),
                None => error_response("not_found", &format!("no job {id}")),
            },
        },
        "result" => match id_field() {
            Err(e) => e,
            Ok(id) => match engine.status(id) {
                None => error_response("not_found", &format!("no job {id}")),
                Some(s) if s.state == JobState::Done => match engine.result(id) {
                    Some(result) => {
                        let from_cache = s.from_cache;
                        return (
                            Reply::Result {
                                id,
                                from_cache,
                                result,
                            },
                            false,
                        );
                    }
                    None => error_response("internal", "done job lost its result"),
                },
                Some(s) if s.state == JobState::Failed => {
                    error_response("internal", s.error.as_deref().unwrap_or("job failed"))
                }
                Some(s) if s.state == JobState::Drained => error_response(
                    "draining",
                    &format!("job {id} was drained before running; replay it elsewhere"),
                ),
                Some(s) => error_response("not_ready", &format!("job {id} is {}", s.state.name())),
            },
        },
        "cancel" => match id_field() {
            Err(e) => e,
            Ok(id) => {
                if engine.cancel(id) {
                    ok_response(vec![
                        ("id", Value::from(id)),
                        ("cancelled", Value::from(true)),
                    ])
                } else {
                    error_response("not_found", &format!("no job {id}"))
                }
            }
        },
        "stats" => match engine.stats_value() {
            Value::Object(mut map) => {
                map.insert("ok".to_string(), Value::from(true));
                Value::Object(map)
            }
            _ => error_response("internal", "stats not an object"),
        },
        "metrics" => ok_response(vec![("metrics", Value::from(metrics_text(engine)))]),
        "graphs" => {
            let graphs: Vec<Value> = engine
                .registry()
                .list()
                .into_iter()
                .map(|(name, epoch, nodes)| {
                    Value::object([
                        ("name", Value::from(name)),
                        ("epoch", Value::from(epoch)),
                        ("nodes", Value::from(nodes)),
                    ])
                })
                .collect();
            ok_response(vec![("graphs", Value::Array(graphs))])
        }
        "load" => {
            let str_field = |name: &'static str| {
                request
                    .get(name)
                    .and_then(Value::as_str)
                    .ok_or_else(|| error_response("bad_request", &format!("missing '{name}'")))
            };
            match (str_field("name"), str_field("path")) {
                (Err(e), _) | (_, Err(e)) => e,
                (Ok(name), Ok(path)) => match engine.registry().load_path(name, path) {
                    Ok((epoch, kind)) => ok_response(vec![
                        ("name", Value::from(name)),
                        ("epoch", Value::from(epoch)),
                        ("load", Value::from(kind.as_str())),
                    ]),
                    Err(LoadError::Io(m)) => error_response("load_failed", &m),
                    Err(LoadError::Store(m)) => error_response("store_error", &m),
                    Err(LoadError::Parse {
                        path,
                        line,
                        column,
                        message,
                    }) => {
                        let mut err = vec![
                            ("code", Value::from("parse_error")),
                            ("message", Value::from(message.as_str())),
                            ("line", Value::from(line)),
                            ("column", Value::from(column)),
                        ];
                        if let Some(p) = &path {
                            err.push(("path", Value::from(p.as_str())));
                        }
                        Value::object([("ok", Value::from(false)), ("error", Value::object(err))])
                    }
                },
            }
        }
        "drain" => {
            let (bounced, running) = engine.begin_drain();
            ok_response(vec![
                ("draining", Value::from(true)),
                ("bounced", Value::from(bounced as u64)),
                ("running", Value::from(running as u64)),
            ])
        }
        "shutdown" => {
            let response = ok_response(vec![("stopping", Value::from(true))]);
            return (Reply::Value(response), true);
        }
        other => error_response("bad_request", &format!("unknown op '{other}'")),
    };
    (Reply::Value(response), false)
}

/// Renders the engine's statistics as Prometheus text-exposition gauges:
/// every numeric leaf of [`Engine::stats_value`] becomes one
/// `fairsqg_<path> <value>` line (path components joined with `_`),
/// booleans become `0`/`1`, and string leaves become a labelled gauge
/// (`fairsqg_pressure_level{value="nominal"} 1`). Serves the `metrics`
/// op and the multiplexed server's `GET /metrics` endpoint.
pub fn metrics_text(engine: &Engine) -> String {
    let mut out = String::from("# fairsqg engine metrics (all gauges)\n");
    flatten_metrics(&engine.stats_value(), "fairsqg", &mut out);
    out
}

fn flatten_metrics(v: &Value, path: &str, out: &mut String) {
    use std::fmt::Write as _;
    match v {
        Value::Object(map) => {
            for (k, child) in map {
                let joined = format!("{path}_{k}");
                flatten_metrics(child, &joined, out);
            }
        }
        Value::Int(i) => {
            let _ = writeln!(out, "{path} {i}");
        }
        Value::Float(f) if f.is_finite() => {
            let _ = writeln!(out, "{path} {f}");
        }
        Value::Bool(b) => {
            let _ = writeln!(out, "{path} {}", u8::from(*b));
        }
        Value::Str(s) => {
            let escaped = s.replace('\\', "\\\\").replace('"', "\\\"");
            let _ = writeln!(out, "{path}{{value=\"{escaped}\"}} 1");
        }
        // Arrays and non-finite floats have no scalar exposition; skip.
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_shape() {
        let e = error_response("overloaded", "queue full");
        assert_eq!(e.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(
            e.get("error")
                .and_then(|x| x.get("code"))
                .and_then(Value::as_str),
            Some("overloaded")
        );
    }
}
