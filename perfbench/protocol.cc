// The paper's protocol as a workload: sample a query family, ask a
// recommender for R from P under the 1C-P space budget, build R and 1C, and
// run the sampled workload on P, R and 1C (Sections 3.2-4.1).
//
//   nref2j_protocol  NREF2J under System A, 100 queries. Every query carries
//                    two IN (SELECT ... HAVING COUNT(*) < 4) sets, so IN-set
//                    materialization, row decode and Volcano work dominate.
//   nref3j_protocol  NREF3J under System B, 30 queries. No IN-subqueries,
//                    only 3-way self-joins and COUNT(DISTINCT): the bypass
//                    workload for IN-set work. 30 rather than the paper's
//                    100 queries because a pass at 100 runs ~28 s here.
//
// Both use the protocol's default sample seed (77), whatever --seed says: a
// different sample changes how much work a pass is (up to 60 % on NREF3J,
// 30 % on NREF2J, measured over four sample seeds), which would drown the
// benchmark's bounds. run.py holds the paper-claim outputs recorded for that
// sample. Untraced runs repeat whole passes until the time budget is spent.
// Each pass times its steps (sampling and recommending, then building and
// running each configuration); run.py reports round_s as the sum of every
// step's median over the passes, so a burst of host noise in one step of
// one pass does not move it.
// A traced run makes one untraced pass and then one traced pass over the
// same inputs, driving each query through Plan/ExecutePlan instead of
// RunWorkload, and checks that both produce the same simulated totals and
// timeout counts.

#include <cstdio>
#include <string>
#include <vector>

#include "advisor/profiles.h"
#include "common.h"
#include "core/benchmark_suite.h"
#include "core/configurations.h"
#include "core/goal.h"
#include "core/nref_families.h"
#include "core/runner.h"
#include "exec/operators.h"
#include "sql/binder.h"

namespace tabperf {
namespace {

using namespace tabbench;

constexpr uint64_t kSampleSeed = 77;
constexpr int kSetups = 3;

struct ConfigOutcome {
  std::string name;
  size_t timeouts = 0;
  double clamped_seconds = 0.0;  // sum of min(A, timeout)
  CumulativeFrequency cfc;
};

struct PassOutcome {
  double wall_s = 0.0;  // sampling .. last workload run
  /// Wall time of each step, in order: sampling + recommending, then for
  /// each configuration its build and its workload run.
  std::vector<double> steps_s;
  /// Indices into steps_s of the workload runs.
  std::vector<int64_t> run_steps;
  size_t executions = 0;
  size_t failures = 0;      // queries RunWorkload isolated as failed
  bool have_rec = false;
  size_t rec_indexes = 0;
  size_t rec_views = 0;
  size_t candidates = 0;
  uint64_t secondary_pages_1c = 0;
  std::vector<ConfigOutcome> configs;
  // Traced pass only: exact work counts of the query executions.
  uint64_t pages_read = 0;
  uint64_t tuples_processed = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_accesses = 0;
  size_t in_sets = 0;
};

/// Runs `sql` on the current configuration the way RunWorkload does (cold
/// pool, one context per query on the shared pool), one public call per
/// layer, with spans. Timeouts clamp to the limit as in RunWorkload.
///
/// Then, beside the workload, each query is parsed and bound once more and
/// the IN-sets its plan names are materialized again on a cold private
/// pool, so their cost can be told apart from the rest of the query. That
/// sweep runs after the last query, so it does not warm the caches the
/// measured executions run in.
Status RunTraced(Database* db, const std::vector<std::string>& sql,
                 Tracer* t, uint32_t* request, PassOutcome* pass,
                 std::vector<QueryTiming>* timings) {
  const CostParams cost = db->options().cost;
  db->buffer_pool()->Clear();
  const uint32_t first_request = *request + 1;
  std::vector<PhysicalPlan> plans;
  for (const std::string& q : sql) {
    t->set_request(++*request);
    Tracer::Scope query(t, "core.query");
    PhysicalPlan plan;
    {
      Tracer::Scope span(t, "optimizer.plan");
      TB_ASSIGN_OR_RETURN(plan, db->Plan(q));
    }
    ExecContext ctx = db->MakeSessionContext(db->buffer_pool(), cost);
    const BufferPoolStats before = db->buffer_stats();
    QueryResult r;
    {
      Tracer::Scope span(t, "exec.execute");
      TB_ASSIGN_OR_RETURN(r, ExecutePlan(plan, *db, &ctx));
    }
    const BufferPoolStats after = db->buffer_stats();
    pass->pool_hits += after.hits - before.hits;
    pass->pool_accesses += after.accesses() - before.accesses();
    pass->pages_read += r.pages_read;
    pass->tuples_processed += r.tuples_processed;
    QueryTiming timing;
    timing.timed_out = r.timed_out;
    timing.seconds = r.timed_out ? cost.timeout_seconds : r.sim_seconds;
    timings->push_back(timing);
    plans.push_back(std::move(plan));
  }

  BufferPool side_pool(db->options().buffer_pool_pages);
  for (size_t k = 0; k < sql.size(); ++k) {
    t->set_request(first_request + static_cast<uint32_t>(k));
    {
      Tracer::Scope span(t, "sql.parse_bind", /*beside=*/true);
      TB_RETURN_IF_ERROR(ParseAndBind(sql[k], db->catalog()).status());
    }
    for (const InSetSpec& spec : plans[k].in_sets) {
      side_pool.Clear();
      ExecContext side = db->MakeSessionContext(&side_pool, cost);
      Tracer::Scope span(t, "exec.inset", /*beside=*/true);
      TB_RETURN_IF_ERROR(MaterializeInSet(spec, *db, &side).status());
      ++pass->in_sets;
    }
  }
  t->set_request(0);
  return Status::OK();
}

Result<PassOutcome> RunPass(Database* db, const QueryFamily& family,
                            size_t queries, const AdvisorOptions& profile,
                            uint64_t sample_seed, Tracer* t) {
  PassOutcome pass;
  uint32_t request = 0;
  const auto t0 = Clock::now();

  ExperimentOptions eopts;
  eopts.workload_size = queries;
  eopts.sample_seed = sample_seed;
  FamilyExperiment exp(db, family, eopts);
  {
    Tracer::Scope span(t, "core.sample");
    TB_RETURN_IF_ERROR(exp.Prepare());
  }
  auto step = [&pass](Clock::time_point since) {
    pass.steps_s.push_back(SecondsSince(since));
  };
  const std::vector<std::string> sql = exp.workload().Sql();

  Recommendation rec;
  {
    Tracer::Scope span(t, "advisor.recommend");
    Result<Recommendation> r = exp.Recommend(profile);
    if (r.ok()) {
      rec = r.TakeValue();
      pass.have_rec = true;
    } else if (!r.status().IsNotFound()) {
      return r.status();  // NotFound = the recommender declined (paper)
    }
  }
  step(t0);
  pass.rec_indexes = rec.config.indexes.size();
  pass.rec_views = rec.config.views.size();
  pass.candidates = rec.candidates_considered;

  std::vector<Configuration> configs;
  configs.push_back(MakePConfig());
  if (pass.have_rec) configs.push_back(rec.config);
  configs.push_back(Make1CConfig(db->catalog()));

  if (t != nullptr) {
    // H(q, C, P) of every configuration the protocol builds: the what-if
    // estimates the paper sets against the measured A (Section 5). Beside
    // the protocol, whose advisor makes the same calls internally.
    for (size_t c = 1; c < configs.size(); ++c) {
      for (const std::string& q : sql) {
        Tracer::Scope span(t, "optimizer.whatif", /*beside=*/true);
        TB_RETURN_IF_ERROR(
            db->HypotheticalEstimate(q, configs[c], profile.whatif).status());
      }
    }
  }

  for (const Configuration& config : configs) {
    ConfigOutcome co;
    co.name = config.name;
    const auto b0 = Clock::now();
    {
      Tracer::Scope span(t, "engine.apply_config");
      if (config.indexes.empty() && config.views.empty()) {
        TB_RETURN_IF_ERROR(db->ResetToPrimary());
      } else {
        BuildReport build;
        TB_ASSIGN_OR_RETURN(build, db->ApplyConfiguration(config));
        if (&config == &configs.back()) {
          pass.secondary_pages_1c = build.secondary_pages;
        }
      }
    }
    step(b0);
    std::vector<QueryTiming> timings;
    const auto r0 = Clock::now();
    if (t == nullptr) {
      WorkloadResult wr;
      TB_ASSIGN_OR_RETURN(wr, RunWorkload(db, sql));
      pass.failures += wr.failures;
      timings = std::move(wr.timings);
    } else {
      TB_RETURN_IF_ERROR(RunTraced(db, sql, t, &request, &pass, &timings));
    }
    pass.run_steps.push_back(static_cast<int64_t>(pass.steps_s.size()));
    step(r0);
    pass.executions += sql.size();
    for (const QueryTiming& qt : timings) {
      if (qt.timed_out) ++co.timeouts;
      co.clamped_seconds += qt.seconds;
    }
    co.cfc = CumulativeFrequency::FromTimings(timings);
    pass.configs.push_back(std::move(co));
  }
  pass.wall_s = SecondsSince(t0);
  return pass;
}

/// The paper-claim outputs of one pass, compared by run.py with the values
/// recorded for the variant. Raw simulated seconds are deliberately absent.
JsonObject Claims(const PassOutcome& p) {
  const PerformanceGoal goal = PerformanceGoal::PaperExample2();
  JsonObject timeouts, verdicts;
  std::vector<std::string> dominance;
  for (const ConfigOutcome& a : p.configs) {
    timeouts.Int(a.name, static_cast<int64_t>(a.timeouts));
    verdicts.Bool(a.name, goal.SatisfiedBy(a.cfc));
    for (const ConfigOutcome& b : p.configs) {
      if (&a != &b && a.cfc.Dominates(b.cfc)) {
        dominance.push_back(JsonQuote(a.name + ">" + b.name));
      }
    }
  }
  JsonObject claims;
  claims.Bool("recommended", p.have_rec)
      .Int("rec_indexes", static_cast<int64_t>(p.rec_indexes))
      .Int("rec_views", static_cast<int64_t>(p.rec_views))
      .Obj("timeouts", timeouts)
      .Obj("goal_example2", verdicts)
      .Raw("dominance", JsonArray(dominance));
  return claims;
}

}  // namespace

RunOutput RunProtocol(const Args& args, Tracer* tracer, Calibration* cal) {
  RunOutput out;
  const bool three_way = args.workload == "nref3j_protocol";
  const size_t queries = three_way ? 30 : 100;
  const AdvisorOptions profile =
      three_way ? SystemBProfile() : SystemAProfile();

  std::vector<double> setup_s;
  auto db_or = SetUpNref(kSetups, &setup_s, tracer);
  if (!db_or.ok()) {
    out.fatal = "set-up failed: " + db_or.status().ToString();
    return out;
  }
  std::unique_ptr<Database> db = db_or.TakeValue();
  cal->Sample();
  const QueryFamily family =
      three_way ? GenerateNref3J(db->catalog(), db->stats())
                : GenerateNref2J(db->catalog(), db->stats());

  std::vector<PassOutcome> passes;
  const auto t0 = Clock::now();
  do {
    Result<PassOutcome> p =
        RunPass(db.get(), family, queries, profile, kSampleSeed, nullptr);
    if (!p.ok()) {
      out.fatal = "protocol pass failed: " + p.status().ToString();
      return out;
    }
    passes.push_back(p.TakeValue());
    cal->Sample();
    // Back to P outside the timed pass, so every pass starts where the
    // first one did instead of paying for dropping the last pass's 1C.
    if (Status st = db->ResetToPrimary(); !st.ok()) {
      out.fatal = "reset to P failed: " + st.ToString();
      return out;
    }
  } while (tracer == nullptr && SecondsSince(t0) < args.seconds);

  std::vector<std::string> rounds, claims;
  for (const PassOutcome& p : passes) {
    rounds.push_back(JsonObject().Nums("steps_s", p.steps_s).ToString());
    out.attempted += p.executions;
    out.failed += p.failures;
    claims.push_back(Claims(p).ToString());
  }
  out.raw.Nums("setup_s", setup_s)
      .Raw("rounds", JsonArray(rounds))
      .Ints("run_steps", passes.front().run_steps)
      .Int("ops_per_round", static_cast<int64_t>(passes.front().executions))
      .Raw("claims", JsonArray(claims));

  if (tracer != nullptr) {
    Result<PassOutcome> traced =
        RunPass(db.get(), family, queries, profile, kSampleSeed, tracer);
    if (!traced.ok()) {
      out.fatal = "traced pass failed: " + traced.status().ToString();
      return out;
    }
    const PassOutcome& u = passes.front();
    const PassOutcome& tr = *traced;
    out.attempted += tr.executions;
    out.Check(u.configs.size() == tr.configs.size(),
              "traced pass built a different configuration ladder");
    for (size_t c = 0; c < u.configs.size() && c < tr.configs.size(); ++c) {
      const ConfigOutcome& a = u.configs[c];
      const ConfigOutcome& b = tr.configs[c];
      out.Check(a.clamped_seconds == b.clamped_seconds,
                "traced simulated total on " + a.name + " differs: " +
                    std::to_string(a.clamped_seconds) + " vs " +
                    std::to_string(b.clamped_seconds));
      out.Check(a.timeouts == b.timeouts,
                "traced timeout count on " + a.name + " differs");
    }
    JsonObject tj;
    tj.Num("untraced_pass_s", u.wall_s)
        .Num("traced_pass_s", tr.wall_s)
        .Int("candidates", static_cast<int64_t>(tr.candidates))
        .Int("secondary_pages", static_cast<int64_t>(tr.secondary_pages_1c))
        .Int("pages_read", static_cast<int64_t>(tr.pages_read))
        .Int("tuples_processed", static_cast<int64_t>(tr.tuples_processed))
        .Int("pool_hits", static_cast<int64_t>(tr.pool_hits))
        .Int("pool_accesses", static_cast<int64_t>(tr.pool_accesses))
        .Int("in_sets", static_cast<int64_t>(tr.in_sets))
        .Obj("claims", Claims(tr));
    out.raw.Obj("traced", tj);
  }
  return out;
}

}  // namespace tabperf
