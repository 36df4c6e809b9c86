#include "service/sim_service.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "core/width_dispatch.h"
#include "native/native_backend.h"
#include "netlist/stats.h"
#include "obs/exporter.h"
#include "obs/json.h"
#include "resilience/program_validator.h"

namespace udsim {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t elapsed_ns(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

/// One rolling-window slot per Outcome, indexed by the enum's value.
constexpr std::size_t kOutcomeSlots =
    static_cast<std::size_t>(Outcome::ShutDown) + 1;

/// The cache disposition a finished trace implies (at most one of the three
/// cache phases is recorded per request).
[[nodiscard]] std::string_view cache_disposition(const RequestTrace& t) noexcept {
  for (const RequestTrace::Record& r : t.records()) {
    switch (r.phase) {
      case RequestPhase::CacheHit:   return "hit";
      case RequestPhase::CacheWait:  return "wait";
      case RequestPhase::CacheBuild: return "build";
      default: break;
    }
  }
  return "none";
}

}  // namespace

std::string_view health_state_name(HealthState s) noexcept {
  switch (s) {
    case HealthState::Healthy:
      return "healthy";
    case HealthState::Degraded:
      return "degraded";
    case HealthState::Unhealthy:
      return "unhealthy";
  }
  return "?";
}

SimService::SimService(ServiceConfig cfg)
    : cfg_(std::move(cfg)),
      breaker_(cfg_.native_breaker, &metrics_),
      poison_(cfg_.poison, &metrics_),
      cache_(cfg_.cache_budget_bytes, &metrics_),
      queue_(cfg_.queue_capacity, &metrics_),
      anonymous_session_(std::make_shared<ServiceSession>(0, "anonymous")) {
  if (cfg_.chain.empty()) cfg_.chain = SimPolicy{}.chain;
  if (cfg_.workers == 0) cfg_.workers = 1;
  // Resolve the lane width once for the service's lifetime: every cache key,
  // admission estimate and compiled engine then agrees on the width (the
  // dispatch records it in the service registry's dispatch.width gauge).
  cfg_.word_bits = dispatch_width(cfg_.word_bits, nullptr, &metrics_).word_bits;
  if (cfg_.telemetry.enabled) {
    window_ =
        std::make_unique<RollingWindow>(cfg_.telemetry.window, kOutcomeSlots);
    if (!cfg_.telemetry.event_log_path.empty()) {
      events_ = std::make_unique<JsonlEventLog>(
          EventLogConfig{cfg_.telemetry.event_log_path,
                         cfg_.telemetry.event_log_capacity},
          &metrics_);
    }
  }
  workers_.reserve(cfg_.workers);
  for (unsigned i = 0; i < cfg_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

SimService::~SimService() { shutdown(); }

void SimService::shutdown() {
  stopping_.store(true, std::memory_order_release);
  {
    std::lock_guard lock(mu_);
    // Running requests stop at their next poll boundary and resolve as
    // Cancelled (with a checkpoint when resumable); queued ones are drained
    // by the workers below and resolve as ShutDown.
    for (auto& [id, p] : active_) p->token.request_cancel();
  }
  queue_.close();
  std::vector<std::thread> to_join;
  {
    std::lock_guard lock(mu_);
    if (!joined_) {
      joined_ = true;
      to_join.swap(workers_);
    }
  }
  for (std::thread& w : to_join) w.join();
}

SessionId SimService::open_session(std::string name) {
  std::lock_guard lock(mu_);
  const SessionId id = ++next_session_;
  if (name.empty()) name = "session-" + std::to_string(id);
  sessions_.emplace(id, std::make_shared<ServiceSession>(id, std::move(name)));
  return id;
}

std::string SimService::session_report(SessionId session) const {
  std::lock_guard lock(mu_);
  const auto it = sessions_.find(session);
  return it == sessions_.end() ? std::string("{}")
                               : it->second->report_to_json();
}

SimService::Stats SimService::stats() const {
  Stats s;
  s.queue_depth = queue_.depth();
  s.queue_capacity = queue_.capacity();
  s.cache_entries = cache_.size();
  s.cache_bytes = cache_.bytes();
  {
    std::lock_guard lock(mu_);
    s.active_requests = active_.size();
  }
  s.shed_level = metrics_.counter("service.shed.level").value();
  s.quarantined = poison_.quarantined();
  s.breaker = breaker_.state();
  return s;
}

SimService::HealthReport SimService::health() const {
  HealthReport r;
  const auto component = [&](std::string name, HealthState state,
                             std::string detail) {
    if (state > r.state) r.state = state;
    r.components.push_back(
        {std::move(name), state, std::move(detail)});
  };

  if (stopping_.load(std::memory_order_acquire)) {
    component("lifecycle", HealthState::Unhealthy, "shut down");
  } else {
    component("lifecycle", HealthState::Healthy, "accepting requests");
  }

  if (cfg_.enable_native) {
    const BreakerState bs = breaker_.state();
    component("toolchain.breaker",
              bs == BreakerState::Closed ? HealthState::Healthy
                                         : HealthState::Degraded,
              "breaker '" + breaker_.config().name + "' " +
                  breaker_.describe());
  }

  const std::size_t depth = queue_.depth();
  const std::size_t cap = queue_.capacity();
  const double fill =
      cap == 0 ? 0.0 : static_cast<double>(depth) / static_cast<double>(cap);
  component("queue",
            fill >= 0.9   ? HealthState::Unhealthy
            : fill >= 0.5 ? HealthState::Degraded
                          : HealthState::Healthy,
            std::to_string(depth) + "/" + std::to_string(cap) + " queued");

  const std::size_t level = metrics_.counter("service.shed.level").value();
  const std::size_t deepest =
      cfg_.shed.levels.empty() ? 0 : cfg_.shed.levels.size() - 1;
  component("shed",
            level == 0                        ? HealthState::Healthy
            : deepest > 0 && level >= deepest ? HealthState::Unhealthy
                                              : HealthState::Degraded,
            "level " + std::to_string(level) + " of " +
                std::to_string(deepest));

  const std::size_t quarantined = poison_.quarantined();
  component("quarantine",
            quarantined == 0 ? HealthState::Healthy
            : cfg_.poison.capacity != 0 && quarantined >= cfg_.poison.capacity
                ? HealthState::Unhealthy
                : HealthState::Degraded,
            std::to_string(quarantined) + " fingerprint(s) quarantined");

  return r;
}

std::string SimService::health_json() const {
  const HealthReport r = health();
  JsonValue doc = JsonValue::make_object();
  doc.set("state",
          JsonValue::make_string(health_state_name(r.state)));
  JsonValue comps = JsonValue::make_array();
  for (const HealthComponent& c : r.components) {
    JsonValue jc = JsonValue::make_object();
    jc.set("name", JsonValue::make_string(c.name));
    jc.set("state", JsonValue::make_string(health_state_name(c.state)));
    jc.set("detail", JsonValue::make_string(c.detail));
    comps.array.push_back(std::move(jc));
  }
  doc.set("components", std::move(comps));
  return doc.dump(2);
}

std::vector<bool> SimService::good_outcome_slots() {
  std::vector<bool> good(kOutcomeSlots, false);
  good[static_cast<std::size_t>(Outcome::Completed)] = true;
  // Client-initiated stops end the request the way the client asked for;
  // charging them against availability would let one impatient client eat
  // the error budget.
  good[static_cast<std::size_t>(Outcome::Cancelled)] = true;
  good[static_cast<std::size_t>(Outcome::DeadlineExpired)] = true;
  return good;
}

std::string SimService::status_json() const {
  const Stats st = stats();
  const HealthReport hr = health();
  JsonValue doc = JsonValue::make_object();

  JsonValue svc = JsonValue::make_object();
  svc.set("queue_depth", JsonValue::make_uint(st.queue_depth));
  svc.set("queue_capacity", JsonValue::make_uint(st.queue_capacity));
  svc.set("active_requests", JsonValue::make_uint(st.active_requests));
  svc.set("cache_entries", JsonValue::make_uint(st.cache_entries));
  svc.set("cache_bytes", JsonValue::make_uint(st.cache_bytes));
  svc.set("shed_level", JsonValue::make_uint(st.shed_level));
  svc.set("quarantined", JsonValue::make_uint(st.quarantined));
  svc.set("breaker", JsonValue::make_string(breaker_state_name(st.breaker)));
  svc.set("word_bits", JsonValue::make_uint(
                           static_cast<std::uint64_t>(cfg_.word_bits)));
  svc.set("submitted",
          JsonValue::make_uint(metrics_.counter("service.submitted").value()));
  doc.set("service", std::move(svc));

  JsonValue health_doc = JsonValue::make_object();
  health_doc.set("state",
                 JsonValue::make_string(health_state_name(hr.state)));
  JsonValue comps = JsonValue::make_array();
  for (const HealthComponent& c : hr.components) {
    JsonValue jc = JsonValue::make_object();
    jc.set("name", JsonValue::make_string(c.name));
    jc.set("state", JsonValue::make_string(health_state_name(c.state)));
    jc.set("detail", JsonValue::make_string(c.detail));
    comps.array.push_back(std::move(jc));
  }
  health_doc.set("components", std::move(comps));
  doc.set("health", std::move(health_doc));

  // Cumulative exactly-once outcome counters: one key per Outcome, always
  // present (0 included) so consumers can sum without existence checks.
  JsonValue outcomes = JsonValue::make_object();
  for (std::size_t s = 0; s < kOutcomeSlots; ++s) {
    const Outcome o = static_cast<Outcome>(s);
    outcomes.set(
        std::string(outcome_name(o)),
        JsonValue::make_uint(
            metrics_
                .counter(std::string("service.outcome.") +
                         std::string(outcome_name(o)))
                .value()));
  }
  doc.set("outcomes", std::move(outcomes));

  if (window_ != nullptr) {
    const RollingWindow::Snapshot snap = window_->snapshot(trace_now_ns());
    JsonValue win = JsonValue::make_object();
    win.set("interval_ns", JsonValue::make_uint(snap.interval_ns));
    win.set("span_ns", JsonValue::make_uint(snap.span_ns));
    win.set("covered_intervals",
            JsonValue::make_uint(snap.covered_intervals));
    JsonValue wout = JsonValue::make_object();
    JsonValue tout = JsonValue::make_object();
    for (std::size_t s = 0; s < kOutcomeSlots; ++s) {
      const std::string name(outcome_name(static_cast<Outcome>(s)));
      wout.set(name, JsonValue::make_uint(snap.slot_counts[s]));
      tout.set(name, JsonValue::make_uint(snap.slot_totals[s]));
    }
    win.set("outcomes", std::move(wout));
    win.set("outcome_totals", std::move(tout));
    JsonValue lat = JsonValue::make_object();
    lat.set("count", JsonValue::make_uint(snap.latency.count));
    lat.set("sum_us", JsonValue::make_uint(snap.latency.sum));
    lat.set("max_us", JsonValue::make_uint(snap.latency.max));
    lat.set("p50_us", JsonValue::make_uint(
                          RollingWindow::percentile(snap.latency, 0.50)));
    lat.set("p95_us", JsonValue::make_uint(
                          RollingWindow::percentile(snap.latency, 0.95)));
    lat.set("p99_us", JsonValue::make_uint(
                          RollingWindow::percentile(snap.latency, 0.99)));
    win.set("latency", std::move(lat));
    doc.set("window", std::move(win));

    const SloView slo =
        evaluate_slo(snap, cfg_.telemetry.slo, good_outcome_slots());
    JsonValue js = JsonValue::make_object();
    js.set("total", JsonValue::make_uint(slo.total));
    js.set("good", JsonValue::make_uint(slo.good));
    js.set("errors", JsonValue::make_uint(slo.errors));
    js.set("availability", JsonValue::make_double(slo.availability));
    js.set("availability_target",
           JsonValue::make_double(cfg_.telemetry.slo.availability_target));
    js.set("error_budget", JsonValue::make_double(slo.error_budget));
    js.set("budget_consumed", JsonValue::make_double(slo.budget_consumed));
    js.set("availability_ok", JsonValue::make_bool(slo.availability_ok));
    js.set("latency_quantile",
           JsonValue::make_double(cfg_.telemetry.slo.latency_quantile));
    js.set("latency_q_us", JsonValue::make_uint(slo.latency_q_us));
    js.set("latency_target_us",
           JsonValue::make_uint(cfg_.telemetry.slo.latency_target_us));
    js.set("latency_ok", JsonValue::make_bool(slo.latency_ok));
    doc.set("slo", std::move(js));
  }

  JsonValue ev = JsonValue::make_object();
  ev.set("enabled", JsonValue::make_bool(events_ != nullptr));
  if (events_ != nullptr) {
    ev.set("path", JsonValue::make_string(events_->path()));
    ev.set("ok", JsonValue::make_bool(events_->ok()));
    ev.set("written", JsonValue::make_uint(events_->written()));
    ev.set("dropped", JsonValue::make_uint(events_->dropped()));
  }
  doc.set("events", std::move(ev));

  JsonValue tr = JsonValue::make_object();
  tr.set("buffered", JsonValue::make_uint(metrics_.trace_size()));
  tr.set("dropped",
         JsonValue::make_uint(metrics_.counter("trace.dropped").value()));
  doc.set("trace", std::move(tr));

  return doc.dump(2);
}

std::string SimService::prometheus_text() const {
  std::string out = render_prometheus(metrics_);
  PrometheusWriter w;
  const Stats st = stats();
  const HealthReport hr = health();

  w.type("udsim_service_queue_depth", "gauge", "Requests waiting in the queue");
  w.sample("udsim_service_queue_depth", std::uint64_t{st.queue_depth});
  w.type("udsim_service_queue_capacity", "gauge");
  w.sample("udsim_service_queue_capacity", std::uint64_t{st.queue_capacity});
  w.type("udsim_service_active_requests", "gauge",
         "Submitted but not yet resolved");
  w.sample("udsim_service_active_requests", std::uint64_t{st.active_requests});
  w.type("udsim_service_cache_entries", "gauge");
  w.sample("udsim_service_cache_entries", std::uint64_t{st.cache_entries});
  w.type("udsim_service_cache_bytes", "gauge");
  w.sample("udsim_service_cache_bytes", std::uint64_t{st.cache_bytes});
  w.type("udsim_service_shed_level_current", "gauge",
         "Load-shed ladder level of the most recent schedule");
  w.sample("udsim_service_shed_level_current", std::uint64_t{st.shed_level});
  w.type("udsim_service_quarantined_fingerprints", "gauge",
         "Poison-ledger quarantine population");
  w.sample("udsim_service_quarantined_fingerprints",
           std::uint64_t{st.quarantined});
  w.type("udsim_service_breaker_state", "gauge",
         "Toolchain breaker: 0=closed 1=open 2=half_open");
  w.sample("udsim_service_breaker_state",
           static_cast<std::uint64_t>(st.breaker));
  w.type("udsim_service_health_state", "gauge",
         "0=healthy 1=degraded 2=unhealthy");
  w.sample("udsim_service_health_state", static_cast<std::uint64_t>(hr.state));

  if (window_ != nullptr) {
    const RollingWindow::Snapshot snap = window_->snapshot(trace_now_ns());
    w.type("udsim_window_outcome_count", "gauge",
           "Requests resolved per outcome over the rolling window");
    w.type("udsim_window_outcome_total", "counter",
           "Requests resolved per outcome since start (exactly-once)");
    for (std::size_t s = 0; s < kOutcomeSlots; ++s) {
      const std::string name(outcome_name(static_cast<Outcome>(s)));
      w.sample("udsim_window_outcome_count", snap.slot_counts[s],
               {{"outcome", name}});
      w.sample("udsim_window_outcome_total", snap.slot_totals[s],
               {{"outcome", name}});
    }
    w.type("udsim_window_latency_us", "gauge",
           "Windowed request latency percentiles (microseconds)");
    w.sample("udsim_window_latency_us",
             RollingWindow::percentile(snap.latency, 0.50),
             {{"quantile", "0.5"}});
    w.sample("udsim_window_latency_us",
             RollingWindow::percentile(snap.latency, 0.95),
             {{"quantile", "0.95"}});
    w.sample("udsim_window_latency_us",
             RollingWindow::percentile(snap.latency, 0.99),
             {{"quantile", "0.99"}});

    const SloView slo =
        evaluate_slo(snap, cfg_.telemetry.slo, good_outcome_slots());
    w.type("udsim_slo_availability", "gauge",
           "Windowed good / total (1.0 when empty)");
    w.sample("udsim_slo_availability", slo.availability);
    w.type("udsim_slo_error_budget_consumed", "gauge",
           "Fraction of the windowed error budget consumed (>1 = blown)");
    w.sample("udsim_slo_error_budget_consumed", slo.budget_consumed);
    w.type("udsim_slo_availability_ok", "gauge");
    w.sample("udsim_slo_availability_ok",
             std::uint64_t{slo.availability_ok ? 1u : 0u});
    w.type("udsim_slo_latency_ok", "gauge");
    w.sample("udsim_slo_latency_ok", std::uint64_t{slo.latency_ok ? 1u : 0u});
  }

  if (events_ != nullptr) {
    w.type("udsim_events_written", "counter",
           "Event-log lines written to the JSONL sink");
    w.sample("udsim_events_written", events_->written());
    w.type("udsim_events_dropped", "counter",
           "Event-log lines dropped (queue full or sink unusable)");
    w.sample("udsim_events_dropped", events_->dropped());
  }

  out += w.take();
  return out;
}

bool SimService::cancel(std::uint64_t request_id) {
  std::lock_guard lock(mu_);
  const auto it = active_.find(request_id);
  if (it == active_.end()) return false;
  it->second->token.request_cancel();
  metrics_.counter("service.cancel.requests").add(1);
  return true;
}

void SimService::resolve(Pending& p, SimResponse&& resp) {
  if (p.resolved.exchange(true, std::memory_order_acq_rel)) return;
  const std::uint64_t latency_ns = elapsed_ns(p.submitted, Clock::now());
  resp.trace_id = p.trace.id();
  metrics_.histogram("service.latency.us").record(latency_ns / 1000);
  if (resp.run_ns != 0) {
    metrics_.histogram("service.run.us").record(resp.run_ns / 1000);
  }
  metrics_
      .counter(std::string("service.outcome.") +
               std::string(outcome_name(resp.outcome)))
      .add(1);
  // Telemetry rides the exactly-once edge: the window record, the event-log
  // line and the trace flush happen iff the outcome counter above was
  // bumped, which is what keeps windowed totals == outcome counters and
  // "one log line (or drop) per resolution" checkable invariants.
  p.trace.record(RequestPhase::Resolve, trace_now_ns(), 0,
                 static_cast<std::uint64_t>(resp.outcome));
  if (window_ != nullptr) {
    window_->record(static_cast<std::size_t>(resp.outcome), latency_ns / 1000,
                    trace_now_ns());
  }
  if (events_ != nullptr) {
    (void)events_->append(event_line(p, resp, latency_ns));
  }
  if (cfg_.telemetry.enabled && cfg_.telemetry.trace_requests) {
    p.trace.flush_to(metrics_);
  }
  if (p.session != nullptr) {
    p.session->record(resp.outcome, latency_ns, resp.queue_ns);
  }
  {
    std::lock_guard lock(mu_);
    active_.erase(p.id);
    metrics_.counter("service.active").set(active_.size());
  }
  p.promise.set_value(std::move(resp));
}

std::string SimService::event_line(const Pending& p, const SimResponse& resp,
                                   std::uint64_t latency_ns) const {
  JsonValue e = JsonValue::make_object();
  e.set("trace_id", JsonValue::make_uint(p.trace.id()));
  e.set("request_id", JsonValue::make_uint(p.id));
  e.set("session",
        JsonValue::make_uint(p.session != nullptr ? p.session->id() : 0));
  e.set("outcome", JsonValue::make_string(outcome_name(resp.outcome)));
  e.set("engine", JsonValue::make_string(engine_name(resp.engine)));
  e.set("width", JsonValue::make_uint(
                     static_cast<std::uint64_t>(cfg_.word_bits)));
  e.set("cache", JsonValue::make_string(cache_disposition(p.trace)));
  e.set("shed_level", JsonValue::make_uint(resp.shed_level));
  e.set("attempts", JsonValue::make_uint(resp.attempts));
  e.set("vectors_done", JsonValue::make_uint(resp.vectors_done));
  e.set("latency_ns", JsonValue::make_uint(latency_ns));
  e.set("queue_ns", JsonValue::make_uint(resp.queue_ns));
  e.set("run_ns", JsonValue::make_uint(resp.run_ns));
  JsonValue phases = JsonValue::make_object();
  for (const RequestPhase ph :
       {RequestPhase::Admission, RequestPhase::QueueWait,
        RequestPhase::ShedDecide, RequestPhase::CacheHit,
        RequestPhase::CacheWait, RequestPhase::CacheBuild,
        RequestPhase::RunAttempt, RequestPhase::Backoff}) {
    const std::uint64_t ns = p.trace.phase_ns(ph);
    if (ns != 0) {
      phases.set(std::string(request_phase_name(ph)),
                 JsonValue::make_uint(ns));
    }
  }
  e.set("phase_ns", std::move(phases));
  if (!resp.detail.empty()) {
    e.set("detail", JsonValue::make_string(resp.detail));
  }
  return e.dump(0);
}

ServiceTicket SimService::submit(SessionId session, SimRequest req) {
  auto p = std::make_shared<Pending>();
  p->id = next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  p->req = std::move(req);
  p->submitted = Clock::now();
  if (cfg_.telemetry.enabled) {
    p->trace = RequestTrace(mint_request_trace_id());
  }
  const std::uint64_t admission_start =
      cfg_.telemetry.enabled ? trace_now_ns() : 0;
  ServiceTicket ticket{p->id, p->promise.get_future()};
  metrics_.counter("service.submitted").add(1);
  {
    std::lock_guard lock(mu_);
    const auto it = sessions_.find(session);
    p->session = it != sessions_.end() ? it->second : anonymous_session_;
  }

  const auto refuse = [&](Outcome o, std::string detail) {
    // Refusals never reached the queue: the whole pre-queue life is one
    // Admission record (the success path records it just before the push,
    // so a queue-side refusal does not record twice).
    if (p->trace.records().empty()) {
      p->trace.record(RequestPhase::Admission, admission_start,
                      trace_now_ns() - admission_start);
    }
    SimResponse r;
    r.outcome = o;
    r.detail = std::move(detail);
    resolve(*p, std::move(r));
    return std::move(ticket);
  };

  if (stopping_.load(std::memory_order_acquire)) {
    return refuse(Outcome::ShutDown, "service is shut down");
  }
  if (p->req.netlist == nullptr) {
    return refuse(Outcome::Rejected, "request carries no netlist");
  }
  try {
    (void)batch_vector_count(*p->req.netlist, p->req.vectors, "submit");
  } catch (const std::invalid_argument& e) {
    return refuse(Outcome::Rejected, e.what());
  }

  // Poison quarantine: a netlist that has already failed deterministically
  // enough times answers from the ledger — no queue slot, no worker, no
  // recompile. The empty() probe keeps the common case (nothing poisoned)
  // free of a fingerprint walk.
  if (!poison_.empty()) {
    if (std::optional<std::string> why =
            poison_.check(netlist_fingerprint(*p->req.netlist))) {
      return refuse(Outcome::Rejected, "poison quarantine: " + *why);
    }
  }

  // Admission control: at least one engine of the configured chain must fit
  // the compile budget, predicted from structure alone — a request that
  // cannot possibly compile is turned away before it costs a queue slot.
  if (!cfg_.admission.unlimited()) {
    std::vector<EngineKind> candidates = cfg_.chain;
    if (cfg_.enable_native) {
      candidates.insert(candidates.begin(), EngineKind::Native);
    }
    const char* last_violation = nullptr;
    bool fits = false;
    for (const EngineKind kind : candidates) {
      const CompileCostEstimate est =
          estimate_compile_cost(*p->req.netlist, kind, cfg_.word_bits);
      const char* v = budget_violation(cfg_.admission, est);
      if (v == nullptr) {
        fits = true;
        break;
      }
      last_violation = v;
    }
    if (!fits) {
      metrics_.counter("service.admission.rejected").add(1);
      return refuse(Outcome::Rejected,
                    std::string("admission: no chain engine fits the compile "
                                "budget (limit crossed: ") +
                        (last_violation != nullptr ? last_violation : "?") +
                        ")");
    }
  }

  // The deadline starts at submission, so queue wait and compile time are
  // charged against it (deadline inheritance across every phase).
  if (p->req.deadline.count() > 0) {
    p->token.set_deadline_after(p->req.deadline);
  }

  {
    std::lock_guard lock(mu_);
    active_.emplace(p->id, p);
    metrics_.counter("service.active").set(active_.size());
  }
  // Recorded before the push: once the request is in the queue a worker may
  // own it, and the trace is single-writer.
  p->trace.record(RequestPhase::Admission, admission_start,
                  trace_now_ns() - admission_start);
  switch (queue_.try_push(p)) {
    case BoundedQueue<std::shared_ptr<Pending>>::Push::Ok:
      break;
    case BoundedQueue<std::shared_ptr<Pending>>::Push::Full:
      metrics_.counter("service.backpressure.full").add(1);
      return refuse(Outcome::QueueFull,
                    "request queue at capacity (" +
                        std::to_string(queue_.capacity()) + ")");
    case BoundedQueue<std::shared_ptr<Pending>>::Push::Closed:
      return refuse(Outcome::ShutDown, "service is shut down");
  }
  return ticket;
}

SimResponse SimService::run(SessionId session, SimRequest req) {
  ServiceTicket t = submit(session, std::move(req));
  return t.result.get();
}

void SimService::worker_loop() {
  for (;;) {
    std::optional<std::shared_ptr<Pending>> item = queue_.pop();
    if (!item.has_value()) return;  // closed and drained
    const std::shared_ptr<Pending> p = std::move(*item);
    if (stopping_.load(std::memory_order_acquire)) {
      SimResponse r;
      r.outcome = Outcome::ShutDown;
      r.detail = "service shut down while the request was queued";
      r.queue_ns = elapsed_ns(p->submitted, Clock::now());
      resolve(*p, std::move(r));
      continue;
    }
    run_one(p);
  }
}

void SimService::run_one(const std::shared_ptr<Pending>& p) {
  // Pin the request id to this worker thread: every TraceSpan below —
  // including the compile-phase spans inside the cache build — tags itself
  // with the "request" arg. Shards on pool threads re-enter the scope via
  // BatchOptions::trace_id.
  RequestTraceScope trace_scope(p->trace.id());
  SimResponse resp;
  resp.queue_ns = elapsed_ns(p->submitted, Clock::now());
  metrics_.histogram("service.queue_wait.us").record(resp.queue_ns / 1000);
  p->trace.record(RequestPhase::QueueWait, trace_now_ns() - resp.queue_ns,
                  resp.queue_ns);

  // A deadline or cancel that landed while the request was queued: resolve
  // without touching the cache or the pool.
  if (const StopReason r = p->token.stop_reason(); r != StopReason::None) {
    resp.outcome = r == StopReason::Deadline ? Outcome::DeadlineExpired
                                             : Outcome::Cancelled;
    resp.detail = std::string(stop_reason_name(r)) + " while queued";
    resolve(*p, std::move(resp));
    return;
  }

  // Load-shed decision, from the queue state at schedule time.
  const std::uint64_t shed_start = trace_now_ns();
  const std::size_t level_i =
      cfg_.shed.decide(queue_.depth(), queue_.capacity());
  const ShedLevel& level = cfg_.shed.level(level_i);
  p->trace.record(RequestPhase::ShedDecide, shed_start,
                  trace_now_ns() - shed_start, level_i);
  resp.shed_level = level_i;
  metrics_.counter("service.shed.level").set(level_i);
  if (level_i > 0) metrics_.counter("service.shed.degraded").add(1);

  std::vector<EngineKind> chain = cfg_.chain;
  if (level.chain_skip > 0 && level.chain_skip < chain.size()) {
    chain.erase(chain.begin(),
                chain.begin() + static_cast<std::ptrdiff_t>(level.chain_skip));
  }
  if (cfg_.enable_native && !level.drop_native) {
    chain.insert(chain.begin(), EngineKind::Native);
  }

  const Netlist& nl = *p->req.netlist;
  const std::uint64_t nl_fp = netlist_fingerprint(nl);
  const ProgramCache::Key key{nl_fp, engine_chain_fingerprint(chain),
                              cfg_.word_bits};

  if (level.cache_only && !cache_.contains(key)) {
    metrics_.counter("service.shed.rejected").add(1);
    resp.outcome = Outcome::Rejected;
    resp.detail = "load-shed level " + std::to_string(level_i) +
                  ": compile admission closed (not in the program cache)";
    resolve(*p, std::move(resp));
    return;
  }

  ProgramCache::Acquired acq;
  const std::uint64_t cache_start = trace_now_ns();
  try {
    acq = cache_.acquire(
        key,
        [&]() {
          auto entry = std::make_shared<ProgramCache::Entry>();
          // The entry owns the netlist it compiles from: the simulator keeps
          // a reference into it, and the entry outlives the building request
          // (a later hit may come from a client whose own netlist is gone).
          entry->netlist = p->req.netlist;
          SimPolicy policy;
          policy.chain = chain;
          policy.budget = cfg_.admission;
          policy.metrics = &metrics_;
          policy.cancel = &p->token;
          policy.validate = cfg_.validate;
          policy.native = cfg_.native;
          // One breaker spans every request's native attempt: the toolchain
          // is a service-wide dependency, and an outage discovered by one
          // request should short-circuit all of them.
          policy.native_breaker = cfg_.enable_native ? &breaker_ : nullptr;
          policy.word_bits = cfg_.word_bits;  // resolved at construction
          entry->sim = make_simulator_with_fallback(nl, policy, &entry->diag);
          // The compile-time token belongs to the building request and dies
          // with it; detach so a cached simulator never polls freed memory
          // (each run supplies its own token via BatchRunOptions::cancel).
          entry->sim->set_cancel(nullptr);
          entry->engine = entry->sim->kind();
          const Program* prog = entry->sim->compiled_program();
          entry->bytes =
              prog != nullptr
                  ? measure_compile_cost(*prog, entry->engine, nl.net_count())
                        .peak_bytes
                  : estimate_compile_cost(nl, entry->engine, cfg_.word_bits)
                        .peak_bytes;
          return entry;
        },
        &p->token);
  } catch (const Cancelled& c) {
    p->trace.record(RequestPhase::CacheWait, cache_start,
                    trace_now_ns() - cache_start);
    resp.outcome = c.reason() == StopReason::Deadline
                       ? Outcome::DeadlineExpired
                       : Outcome::Cancelled;
    resp.detail = "stopped during compile (" + c.site() + ")";
    resolve(*p, std::move(resp));
    return;
  } catch (const BudgetExceeded& e) {
    p->trace.record(RequestPhase::CacheBuild, cache_start,
                    trace_now_ns() - cache_start);
    // The structural admission estimate passed but the real emission (or a
    // stricter prediction) did not: still a structured rejection.
    metrics_.counter("service.admission.rejected").add(1);
    resp.outcome = Outcome::Rejected;
    resp.detail = e.what();
    resolve(*p, std::move(resp));
    return;
  } catch (const std::exception& e) {
    p->trace.record(RequestPhase::CacheBuild, cache_start,
                    trace_now_ns() - cache_start);
    const FaultClass fc = classify_fault(e);
    metrics_
        .counter(std::string("service.fault.") +
                 std::string(fault_class_name(fc)))
        .add(1);
    resp.outcome = Outcome::Failed;
    resp.detail = std::string("compile failed: ") + e.what();
    // A whole-chain compile failure is a property of the netlist (toolchain
    // outages fall back inside the chain and never reach here): strike it.
    if (fc == FaultClass::Deterministic) {
      poison_.record_failure(nl_fp, resp.detail);
    }
    resolve(*p, std::move(resp));
    return;
  }
  p->trace.record(acq.hit ? (acq.waited ? RequestPhase::CacheWait
                                        : RequestPhase::CacheHit)
                          : RequestPhase::CacheBuild,
                  cache_start, trace_now_ns() - cache_start);
  resp.cache_hit = acq.hit;
  resp.engine = acq.entry->engine;

  // Effective batch-thread share: an explicit request value wins (resume
  // geometry must match the original run), otherwise the service default
  // capped by the shed level.
  unsigned threads = p->req.batch_threads;
  if (threads == 0) {
    threads = cfg_.batch_threads;
    if (level.batch_threads != 0 &&
        (threads == 0 || threads > level.batch_threads)) {
      threads = level.batch_threads;
    }
  }

  ResilientOptions ropts;
  ropts.num_threads = threads;
  ropts.cancel = &p->token;
  ropts.inject = cfg_.inject;
  ropts.retry_limit = cfg_.shard_retry_limit;
  ropts.metrics = &metrics_;
  ropts.resume = p->req.resume.get();
  // The program was validated once at build time (cfg_.validate); re-running
  // the validator per request would be pure overhead.
  ropts.validate = false;
  ropts.trace_id = p->trace.id();

  const Clock::time_point run_start = Clock::now();
  for (unsigned attempt = 1;; ++attempt) {
    resp.attempts = attempt;
    // Either stops the loop with an outcome (returns false) or sleeps the
    // backoff and asks for another attempt (returns true).
    const auto retry_or_fail = [&](const char* what) {
      if (attempt > cfg_.retry.max_retries) {
        resp.outcome = Outcome::Failed;
        resp.detail = std::string("retries exhausted: ") + what;
        return false;
      }
      metrics_.counter("service.retry.attempts").add(1);
      const std::uint64_t backoff_start = trace_now_ns();
      const StopReason r =
          backoff_sleep(cfg_.retry.backoff_for(attempt), &p->token);
      p->trace.record(RequestPhase::Backoff, backoff_start,
                      trace_now_ns() - backoff_start, attempt);
      if (r != StopReason::None) {
        resp.outcome = r == StopReason::Deadline ? Outcome::DeadlineExpired
                                                 : Outcome::Cancelled;
        resp.detail = std::string(stop_reason_name(r)) + " during backoff";
        return false;
      }
      return true;
    };
    const std::uint64_t attempt_start = trace_now_ns();
    const auto record_attempt = [&] {
      p->trace.record(RequestPhase::RunAttempt, attempt_start,
                      trace_now_ns() - attempt_start, attempt);
    };
    try {
      ResilientResult rr =
          run_batch_resilient(*acq.entry->sim, p->req.vectors, ropts);
      record_attempt();
      resp.batch = std::move(rr.batch);
      resp.checkpoint = std::move(rr.checkpoint);
      resp.resumable = rr.resumable && rr.status != RunStatus::Complete;
      resp.vectors_done = rr.vectors_done;
      resp.shard_retries = rr.retries;
      resp.quarantined = rr.quarantined;
      switch (rr.status) {
        case RunStatus::Complete:
          resp.outcome = Outcome::Completed;
          break;
        case RunStatus::Cancelled:
          resp.outcome = Outcome::Cancelled;
          resp.detail = "cancelled during the batch phase";
          break;
        case RunStatus::DeadlineExpired:
          resp.outcome = Outcome::DeadlineExpired;
          resp.detail = "deadline expired during the batch phase";
          break;
      }
      break;
    } catch (const Cancelled& c) {
      record_attempt();
      resp.outcome = c.reason() == StopReason::Deadline
                         ? Outcome::DeadlineExpired
                         : Outcome::Cancelled;
      resp.detail = "stopped at " + c.site();
      break;
    } catch (const std::exception& e) {
      record_attempt();
      // Explicit classification (DESIGN.md §5k): only failures a retry can
      // plausibly cure — injected faults, allocation failures, a timed-out
      // toolchain — consume whole-run attempts and their backoff sleeps.
      // Deterministic failures (geometry-mismatched resume, rejected
      // program, a compiler verdict, logic errors) fail immediately and
      // earn the netlist a poison-ledger strike.
      const FaultClass fc = classify_fault(e);
      metrics_
          .counter(std::string("service.fault.") +
                   std::string(fault_class_name(fc)))
          .add(1);
      if (fc == FaultClass::Deterministic) {
        resp.outcome = Outcome::Failed;
        resp.detail = e.what();
        poison_.record_failure(nl_fp, resp.detail);
        break;
      }
      if (!retry_or_fail(e.what())) break;
    }
  }
  resp.run_ns = elapsed_ns(run_start, Clock::now());
  if (resp.outcome == Outcome::Completed) poison_.record_success(nl_fp);
  resolve(*p, std::move(resp));
}

}  // namespace udsim
