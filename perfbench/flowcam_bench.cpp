// flowcam benchmark driver. perfbench/run.py builds this binary and calls it
// once per measurement; every call prints one JSON object on stdout.
//
//   flowcam_bench info
//   flowcam_bench calibrate
// --packets overrides the workload's fixed size (self-test only).
//
//   flowcam_bench run   --workload W --seed N [--packets P] [--jobs J]
//                       [--decorate 0|1]
//   flowcam_bench setup --workload W --seed N [--packets P]
//   flowcam_bench trace --workload W --seed N [--packets P] [--replay 0|1]
//                       [--span-file PATH]
//
// `run` is one untraced call of a real entry point — ScenarioRunner::run for
// the monolithic workloads, ShardedEngine::run for flood_sharded — timed in
// host wall and process CPU seconds. `setup` times building the run's stack
// through public constructors. `trace` drives the same stack itself from
// public calls in sim::Engine order and times each layer from outside:
// nothing under src/ carries a timer. Its simulated outcome must equal the
// runner's exactly (run.py checks it).
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analyzer/analyzer.hpp"
#include "core/hash_cam_table.hpp"
#include "dram/controller.hpp"
#include "obs/obs.hpp"
#include "shard/shard.hpp"
#include "shard/sharded_engine.hpp"
#include "sim/stats.hpp"
#include "workload/compose.hpp"
#include "workload/config_patch.hpp"
#include "workload/registry.hpp"
#include "workload/runner.hpp"

using namespace flowcam;
using Clock = std::chrono::steady_clock;

namespace {

// ---- Workloads ---------------------------------------------------------------

struct Workload {
    const char* name;
    const char* spec;                     ///< scenario spec (compose grammar).
    std::vector<std::string> assignments; ///< ConfigPatch "key=value" list.
    std::size_t jobs;                     ///< threads for the sharded lanes.
    /// Packets per run, fixed across commits: per-packet host cost grows with
    /// run length, so another size is another benchmark. Each size keeps the
    /// analyzer's event vector (about one event per new or expired flow) clear
    /// of a capacity doubling for every seed, so peak RSS does not jump by the
    /// doubled vector from one seed to the next.
    u64 packets;
};

/// The four workloads. Each is a scenario spec plus a ConfigPatch list; the
/// seed is set on top. Why each exists is in README.md.
const std::vector<Workload>& workloads() {
    static const std::vector<Workload> list = {
        {"lookup_steady", "baseline", {}, 1, 250'000},
        {"insert_flood", "syn_flood", {}, 1, 200'000},
        {"churn_expire", "churn", {"runner.time_scale=1000000"}, 1, 150'000},
        {"flood_sharded", "syn_flood", {"shard.lanes=4"}, 4, 200'000},
    };
    return list;
}

[[noreturn]] void die(const std::string& message) {
    std::fprintf(stderr, "flowcam_bench: %s\n", message.c_str());
    std::exit(2);
}

struct Plan {
    const Workload* workload = nullptr;
    workload::ConfigTree tree;
    workload::ScenarioConfig scenario;  ///< horizon resolved like Experiment::run_cell.
};

Plan make_plan(const std::string& name, u64 seed, u64 packets, std::size_t jobs_override) {
    Plan plan;
    for (const Workload& w : workloads()) {
        if (name == w.name) plan.workload = &w;
    }
    if (plan.workload == nullptr) die("unknown workload '" + name + "'");
    const workload::ConfigPatch& patch = workload::ConfigPatch::registry();
    for (const std::string& assignment : plan.workload->assignments) {
        if (Status status = patch.apply_assignment(plan.tree, assignment); !status.is_ok()) {
            die(status.to_string());
        }
    }
    plan.tree.runner.packets = packets != 0 ? packets : plan.workload->packets;
    plan.tree.scenario.seed = seed;
    plan.tree.runner.shard.jobs = jobs_override != 0 ? jobs_override : plan.workload->jobs;
    plan.scenario = plan.tree.scenario;
    if (plan.scenario.horizon_packets == 0) {
        plan.scenario.horizon_packets = plan.tree.runner.packets;
    }
    return plan;
}

// ---- JSON output -------------------------------------------------------------

class Json {
  public:
    Json& num(const std::string& key, double value) {
        char buffer[64];
        std::snprintf(buffer, sizeof buffer, "%.17g", value);
        return raw(key, buffer);
    }
    Json& num(const std::string& key, u64 value) { return raw(key, std::to_string(value)); }
    Json& str(const std::string& key, const std::string& value) {
        std::string quoted = "\"";
        for (char c : value) {
            if (c == '"' || c == '\\') quoted += '\\';
            quoted += c;
        }
        return raw(key, quoted + "\"");
    }
    Json& flag(const std::string& key, bool value) { return raw(key, value ? "true" : "false"); }
    Json& raw(const std::string& key, const std::string& literal) {
        out_ += out_.empty() ? "{" : ",";
        out_ += "\"" + key + "\":" + literal;
        return *this;
    }
    [[nodiscard]] std::string text() const { return out_.empty() ? "{}" : out_ + "}"; }

  private:
    std::string out_;
};

// ---- Host measurements ---------------------------------------------------------

double cpu_seconds() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

u64 peak_rss_kb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<u64>(usage.ru_maxrss);
}

u64 ns_since(Clock::time_point start) {
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count());
}

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

// ---- Simulated outcome ------------------------------------------------------------

/// The simulated result every path must agree on, exactly.
struct Outcome {
    u64 packets = 0;
    u64 completions = 0;
    u64 cam_hits = 0;
    u64 lu1_hits = 0;
    u64 lu2_hits = 0;
    u64 new_flows = 0;
    u64 drops = 0;
    u64 flows_expired = 0;
    u64 buffer_retries = 0;
    u64 distinct_flows = 0;
    u64 cycles = 0;
    bool drained = false;
    double mdesc_per_s = 0.0;

    static Outcome of(const workload::ScenarioMetrics& m) {
        return Outcome{m.packets, m.completions, m.cam_hits,      m.lu1_hits,
                       m.lu2_hits, m.new_flows,  m.drops,         m.flows_expired,
                       m.buffer_retries, m.distinct_flows, m.cycles, m.drained,
                       m.mdesc_per_s};
    }

    void write(Json& json) const {
        json.num("packets", packets)
            .num("completions", completions)
            .num("cam_hits", cam_hits)
            .num("lu1_hits", lu1_hits)
            .num("lu2_hits", lu2_hits)
            .num("new_flows", new_flows)
            .num("drops", drops)
            .num("flows_expired", flows_expired)
            .num("buffer_retries", buffer_retries)
            .num("distinct_flows", distinct_flows)
            .num("cycles", cycles)
            .flag("drained", drained)
            .num("mdesc_per_s", mdesc_per_s);
    }
};

/// Timing decorator: wraps a builtin scenario and times every next() call.
/// Totals are kept per instance (ShardedEngine draws from several threads)
/// and folded into the shared sink when the scenario is destroyed.
class TimingScenario final : public workload::Scenario {
  public:
    TimingScenario(std::unique_ptr<workload::Scenario> inner, std::atomic<u64>& calls,
                   std::atomic<u64>& ns)
        : inner_(std::move(inner)), sink_calls_(calls), sink_ns_(ns) {}
    ~TimingScenario() override {
        sink_calls_ += calls_;
        sink_ns_ += ns_;
    }
    TimingScenario(const TimingScenario&) = delete;
    TimingScenario& operator=(const TimingScenario&) = delete;

    [[nodiscard]] std::string name() const override { return inner_->name(); }
    [[nodiscard]] std::string description() const override { return inner_->description(); }
    net::PacketRecord next() override {
        const auto start = Clock::now();
        net::PacketRecord record = inner_->next();
        ns_ += ns_since(start);
        ++calls_;
        return record;
    }

  private:
    std::unique_ptr<workload::Scenario> inner_;
    u64 calls_ = 0;
    u64 ns_ = 0;
    std::atomic<u64>& sink_calls_;
    std::atomic<u64>& sink_ns_;
};

/// A Registry whose every builtin name builds the builtin scenario wrapped in
/// a TimingScenario.
struct TimingRegistry {
    std::atomic<u64> calls{0};
    std::atomic<u64> ns{0};
    workload::Registry registry;

    TimingRegistry() {
        const workload::Registry& builtin = workload::builtin_registry();
        for (const std::string& name : builtin.names()) {
            registry.add(name, builtin.describe(name).value(),
                         [this, name](const workload::ScenarioConfig& config)
                             -> Result<std::unique_ptr<workload::Scenario>> {
                             auto inner = workload::builtin_registry().create(name, config);
                             if (!inner) return inner.status();
                             return std::unique_ptr<workload::Scenario>(
                                 std::make_unique<TimingScenario>(std::move(inner).value(),
                                                                  calls, ns));
                         });
        }
    }
};

// ---- run / setup -----------------------------------------------------------------

int cmd_run(const Plan& plan, bool decorate) {
    const workload::RunnerConfig& runner = plan.tree.runner;
    TimingRegistry timing;
    const workload::Registry& registry =
        decorate ? timing.registry : workload::builtin_registry();
    const double cpu_before = cpu_seconds();
    const auto wall_before = Clock::now();
    Result<workload::ScenarioMetrics> result =
        runner.shard.active()
            ? shard::ShardedEngine(runner).run(plan.workload->spec, plan.scenario, registry)
            : workload::ScenarioRunner(runner).run(registry, plan.workload->spec,
                                                   plan.tree.scenario);
    const double wall = static_cast<double>(ns_since(wall_before)) * 1e-9;
    const double cpu = cpu_seconds() - cpu_before;
    Json json;
    json.str("kind", "run").flag("ok", result.has_value());
    if (!result) {
        json.str("error", result.status().to_string());
    } else {
        Outcome::of(result.value()).write(json);
    }
    json.num("wall_s", wall).num("cpu_s", cpu).num("peak_rss_kb", peak_rss_kb());
    if (decorate) json.num("next_calls", timing.calls.load()).num("next_ns", timing.ns.load());
    std::printf("%s\n", json.text().c_str());
    return 0;
}

/// The slice geometry ShardedEngine gives each of its kShardSlices stacks.
analyzer::AnalyzerConfig slice_config(const analyzer::AnalyzerConfig& whole) {
    analyzer::AnalyzerConfig config = whole;
    config.lut.buckets_per_mem =
        std::max<u64>(1, whole.lut.buckets_per_mem / shard::kShardSlices);
    config.lut.cam_capacity =
        std::max<std::size_t>(1, whole.lut.cam_capacity / shard::kShardSlices);
    return config;
}

int cmd_setup(const Plan& plan) {
    constexpr u64 kReps = 9;
    const bool sharded = plan.tree.runner.shard.active();
    const u32 stacks = sharded ? shard::kShardSlices : 1;
    const analyzer::AnalyzerConfig config =
        sharded ? slice_config(plan.tree.runner.analyzer) : plan.tree.runner.analyzer;
    std::vector<double> seconds;
    for (u64 rep = 0; rep < kReps; ++rep) {
        std::vector<std::unique_ptr<workload::Scenario>> scenarios;
        std::vector<std::unique_ptr<analyzer::TrafficAnalyzer>> analyzers;
        const auto start = Clock::now();
        for (u32 s = 0; s < stacks; ++s) {
            auto scenario = workload::make_scenario(plan.workload->spec, plan.scenario);
            if (!scenario) die(scenario.status().to_string());
            scenarios.push_back(std::move(scenario).value());
            analyzers.push_back(std::make_unique<analyzer::TrafficAnalyzer>(config));
        }
        seconds.push_back(static_cast<double>(ns_since(start)) * 1e-9);
    }
    Json json;
    json.str("kind", "setup").num("reps", kReps).num("setup_s", median(seconds));
    std::printf("%s\n", json.text().c_str());
    return 0;
}

// ---- The traced driver -------------------------------------------------------------

/// Host time spent in one layer: call count and total nanoseconds.
struct Span {
    u64 calls = 0;
    u64 ns = 0;
};

/// The layer boundaries the traced driver times.
/// kSkip is a sliced source's FlowKey build and slice test for a record of
/// another slice, which is never digested; kHash covers digested records only.
enum SpanId : u8 { kNext, kHash, kSkip, kFeed, kAccount, kStep, kFastForward, kSpanCount };
constexpr const char* kSpanNames[kSpanCount] = {"workload.next",    "hash",
                                               "source.skip",      "analyzer.feed",
                                               "source.account",   "analyzer.step",
                                               "sim.fast_forward"};

/// One raw span kept for the span file: layer, start, duration and the
/// packet (draw index) it served.
struct RawSpan {
    u8 id;
    u32 stack;
    u64 packet;
    u64 start_ns;
    u64 dur_ns;
};

struct Tracer {
    static constexpr std::size_t kRawSpans = 1 << 16;
    Clock::time_point origin = Clock::now();
    Span spans[kSpanCount];
    std::vector<RawSpan> raw;

    Tracer() { raw.reserve(kRawSpans); }

    /// Close the span that started at `start`; returns the end time so a
    /// following span can start from it without another clock read.
    Clock::time_point close(SpanId id, Clock::time_point start, u32 stack, u64 packet) {
        const Clock::time_point end = Clock::now();
        const u64 dur = static_cast<u64>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count());
        ++spans[id].calls;
        spans[id].ns += dur;
        if (raw.size() < kRawSpans) {
            raw.push_back(RawSpan{
                id, stack, packet,
                static_cast<u64>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(start - origin).count()),
                dur});
        }
        return end;
    }
};

/// One analyzer stack fed by a source that replicates, from public calls,
/// either the monolithic SourceTicker (draw at the offer slot, retry every
/// cycle under backpressure) or the sharded SliceSource (draw the whole
/// stream, keep this slice's records, offer record k no earlier than cycle
/// k * cycles_per_packet). The idle hints are reproduced too, because the
/// engine's fast-forward jumps decide where the final cycle count lands.
struct Stack {
    Stack(const Plan& plan, const analyzer::AnalyzerConfig& config,
          const workload::Registry& registry, bool sliced_source, u32 slice_index, bool capture)
        : analyzer(config),
          recorder(obs::ObsConfig{}),
          sliced(sliced_source),
          slice(slice_index),
          budget(plan.tree.runner.packets),
          cycles_per_packet(plan.tree.runner.cycles_per_packet == 0
                                ? 1
                                : plan.tree.runner.cycles_per_packet),
          time_scale(plan.tree.runner.time_scale > 0.0 ? plan.tree.runner.time_scale : 1.0),
          capture_keys(capture) {
        auto made = workload::make_scenario(plan.workload->spec, plan.scenario, registry);
        if (!made) die(made.status().to_string());
        scenario = std::move(made).value();
        recorder.set_clock(config.lut.system_clock_hz, config.lut.memory_clock_ratio);
        analyzer.set_recorder(&recorder);
        if (capture) {
            analyzer.lut().controller(core::Path::kA).set_command_trace(&commands[0]);
            analyzer.lut().controller(core::Path::kB).set_command_trace(&commands[1]);
            keys.reserve(budget);
        }
    }
    // The analyzer holds the recorder's and the command vectors' addresses.
    Stack(const Stack&) = delete;
    Stack& operator=(const Stack&) = delete;

    std::unique_ptr<workload::Scenario> scenario;
    analyzer::TrafficAnalyzer analyzer;
    obs::Recorder recorder;
    bool sliced;
    u32 slice;
    u64 budget;
    u32 cycles_per_packet;
    double time_scale;
    bool capture_keys;  ///< keep the accepted key stream for replay_table.

    // Source state.
    net::PacketRecord held;
    core::FlowKey key;
    u64 index_a = 0, index_b = 0, digest = 0;
    bool have_held = false;  ///< SourceTicker's `pending_` / SliceSource's `have_held_`.
    bool retrying = false;
    bool exhausted = false;
    Cycle due = 0;
    u64 drawn = 0;
    u64 packets = 0;
    u64 rejected = 0;
    u64 last_scaled_ns = 0;
    Cycle last_now = 0;
    std::unordered_set<u64> flows;

    // Engine state.
    Cycle now = 0;
    u64 stepped = 0;
    bool finished = false;
    bool drained = false;

    // Captured for the standalone replays.
    struct Key {
        core::FlowKey key;
        u64 index_a, index_b;
    };
    std::vector<Key> keys;
    std::vector<dram::TracedCommand> commands[2];

    [[nodiscard]] bool source_done() const {
        return sliced ? exhausted && !have_held : packets >= budget;
    }
    [[nodiscard]] bool done() {
        return source_done() && analyzer.stats().packets >= packets && analyzer.lut().drained();
    }
    [[nodiscard]] u64 source_hint() const {
        if (source_done()) return ~u64{0};
        const Cycle next = last_now + 1;
        const u64 align = (cycles_per_packet - (next % cycles_per_packet)) % cycles_per_packet;
        if (!sliced) return have_held ? 0 : align;
        if (!have_held || retrying) return 0;
        return due > next ? due - next : align;
    }

    void scale_timestamp(net::PacketRecord& record) {
        if (time_scale != 1.0) {
            constexpr double kMaxScaledNs = 9.2e18;
            const double scaled = static_cast<double>(record.timestamp_ns) * time_scale;
            record.timestamp_ns = scaled >= kMaxScaledNs ? static_cast<u64>(kMaxScaledNs)
                                                         : static_cast<u64>(scaled);
        }
        if (record.timestamp_ns <= last_scaled_ns && drawn > 0) {
            record.timestamp_ns = last_scaled_ns + 1;
        }
        last_scaled_ns = record.timestamp_ns;
    }

    /// Draw one record and build its key; hold it with its digests unless a
    /// sliced source skips it as another slice's record.
    void draw(Tracer& tracer, u32 stack_id) {
        auto t = Clock::now();
        held = scenario->next();
        t = tracer.close(kNext, t, stack_id, drawn);
        scale_timestamp(held);
        const u64 index = drawn++;
        key = held.key_override.empty() ? core::FlowKey(net::NTuple::from_five_tuple(held.tuple))
                                        : core::FlowKey(held.key_override);
        if (sliced && shard::slice_of(key) != slice) {
            tracer.close(kSkip, t, stack_id, index);
            return;
        }
        const hash::IndexGenerator& indexer = analyzer.lut().table().indexer();
        const std::span<const u8> view = key.view();
        u64 digest_b = 0;
        indexer.digest_multi(0, &view, 1, &digest);
        indexer.digest_multi(1, &view, 1, &digest_b);
        index_a = indexer.index_of_digest(digest);
        index_b = indexer.index_of_digest(digest_b);
        tracer.close(kHash, t, stack_id, index);
        due = static_cast<Cycle>(index) * cycles_per_packet;
        have_held = true;
    }

    void source_tick(Cycle cycle, Tracer& tracer, u32 stack_id) {
        last_now = cycle;
        if (sliced) {
            while (!have_held && !exhausted) {
                if (drawn >= budget) {
                    exhausted = true;
                    break;
                }
                draw(tracer, stack_id);
            }
            if (!have_held || cycle < due) return;
            if (!retrying && cycle % cycles_per_packet != 0) return;
        } else {
            if (source_done()) return;
            if (!have_held && cycle % cycles_per_packet != 0) return;
            if (!have_held) draw(tracer, stack_id);
        }
        auto t = Clock::now();
        const bool fed = analyzer.feed_prepared(held, key, index_a, index_b, digest);
        t = tracer.close(kFeed, t, stack_id, drawn - 1);
        if (!fed) {
            ++rejected;
            retrying = true;
            return;
        }
        retrying = false;
        have_held = false;
        ++packets;
        flows.insert(held.flow_index);
        if (capture_keys) keys.push_back(Key{key, index_a, index_b});
        tracer.close(kAccount, t, stack_id, drawn - 1);
    }

    /// sim::Engine::run_until over the two tickers (source, analyzer).
    bool run_until(u64 budget_cycles, Tracer& tracer, u32 stack_id) {
        for (u64 i = 0; i < budget_cycles;) {
            if (done()) return true;
            source_tick(now, tracer, stack_id);
            auto t = Clock::now();
            analyzer.step();
            t = tracer.close(kStep, t, stack_id, drawn);
            ++now;
            ++stepped;
            ++i;
            const u64 remaining = budget_cycles - i;
            u64 skip = 0;
            if (remaining > 0) {
                skip = std::min({remaining, source_hint(), analyzer.idle_cycles_hint()});
                if (skip > 0) {
                    analyzer.skip_idle(skip);
                    now += skip;
                    i += skip;
                }
            }
            tracer.close(kFastForward, t, stack_id, drawn);
        }
        return done();
    }
};

struct TracedRun {
    std::vector<std::unique_ptr<Stack>> stacks;
    Tracer tracer;
    double wall_s = 0.0;
};

/// Run the plan's stack(s) through the traced driver: one stack in
/// sim::Engine order for the monolithic workloads; for the sharded workload
/// the kShardSlices slice stacks under ShardedEngine's epoch barrier, run
/// serially.
void traced_run(const Plan& plan, const workload::Registry& registry, bool capture,
                TracedRun& out) {
    const workload::RunnerConfig& runner = plan.tree.runner;
    const bool sharded = runner.shard.active();
    const auto start = Clock::now();
    if (!sharded) {
        out.stacks.push_back(
            std::make_unique<Stack>(plan, runner.analyzer, registry, false, 0, capture));
        Stack& stack = *out.stacks[0];
        stack.drained = stack.run_until(runner.max_cycles, out.tracer, 0);
    } else {
        const analyzer::AnalyzerConfig config = slice_config(runner.analyzer);
        for (u32 s = 0; s < shard::kShardSlices; ++s) {
            out.stacks.push_back(std::make_unique<Stack>(plan, config, registry, true, s, capture));
        }
        for (u64 epoch_start = 0; epoch_start < runner.max_cycles;) {
            bool all_finished = true;
            for (const auto& stack : out.stacks) all_finished = all_finished && stack->finished;
            if (all_finished) break;
            const u64 epoch_end =
                std::min(epoch_start + runner.shard.epoch_cycles, runner.max_cycles);
            for (u32 s = 0; s < shard::kShardSlices; ++s) {
                Stack& stack = *out.stacks[s];
                if (stack.finished) continue;
                stack.drained = stack.run_until(epoch_end - stack.now, out.tracer, s);
                if (stack.drained) stack.finished = true;
            }
            u64 floor = ~u64{0};
            for (const auto& stack : out.stacks) floor = std::min(floor, stack->last_scaled_ns);
            if (floor != 0 && floor != ~u64{0}) {
                for (const auto& stack : out.stacks) {
                    if (!stack->finished) stack->analyzer.lut().advance_stream_floor(floor);
                }
            }
            epoch_start = epoch_end;
        }
    }
    out.wall_s = static_cast<double>(ns_since(start)) * 1e-9;
}

Outcome outcome_of(const TracedRun& run, double system_clock_hz) {
    Outcome o;
    o.drained = true;
    for (const auto& stack : run.stacks) {
        const core::FlowLutStats& lut = stack->analyzer.lut().stats();
        o.packets += stack->packets;
        o.completions += lut.completions;
        o.cam_hits += lut.cam_hits;
        o.lu1_hits += lut.lu1_hits;
        o.lu2_hits += lut.lu2_hits;
        o.new_flows += lut.new_flows;
        o.drops += lut.drops;
        o.flows_expired += stack->analyzer.lut().flow_state().expired_total();
        o.buffer_retries += stack->analyzer.stats().dropped_buffer_full;
        o.distinct_flows += stack->flows.size();
        o.cycles = std::max(o.cycles, stack->now);
        o.drained = o.drained && stack->drained;
    }
    o.mdesc_per_s = sim::mega_per_second(o.completions, o.cycles, system_clock_hz);
    return o;
}

/// Results of the timed loops land here so they cannot be elided.
volatile u64 g_sink = 0;

/// Replay each stack's accepted key stream through a standalone HashCamTable
/// of that stack's geometry: searches on the table the stream leaves behind,
/// and the stream's first-sight inserts into a fresh table. Median of `reps`
/// timed passes; returns {search_ns, insert_ns} per operation.
std::pair<double, double> replay_table(const TracedRun& run, int reps) {
    u64 searches = 0, inserts = 0;
    double search_ns = 0.0, insert_ns = 0.0;
    u64 sink = 0;
    for (const auto& stack : run.stacks) {
        const core::FlowLutConfig& config = stack->analyzer.lut().config();
        core::HashCamTable filled(config);
        std::vector<u32> first_sight;
        for (u32 i = 0; i < stack->keys.size(); ++i) {
            const Stack::Key& k = stack->keys[i];
            if (filled.search_indexed(k.key.view(), k.index_a, k.index_b).hit()) continue;
            auto where = filled.choose_placement_indexed(k.key.view(), k.index_a, k.index_b);
            if (!where) continue;  // table full; no expiry here to make room.
            if (filled.insert_at(where.value(), k.key.view(), i).is_ok()) first_sight.push_back(i);
        }
        std::vector<double> search_pass, insert_pass;
        for (int rep = 0; rep < reps; ++rep) {
            auto start = Clock::now();
            for (const Stack::Key& k : stack->keys) {
                sink += static_cast<u64>(
                    filled.search_indexed(k.key.view(), k.index_a, k.index_b).stage);
            }
            search_pass.push_back(static_cast<double>(ns_since(start)));
            core::HashCamTable fresh(config);
            start = Clock::now();
            for (u32 i : first_sight) {
                const Stack::Key& k = stack->keys[i];
                auto where = fresh.choose_placement_indexed(k.key.view(), k.index_a, k.index_b);
                if (where) sink += fresh.insert_at(where.value(), k.key.view(), i).is_ok();
            }
            insert_pass.push_back(static_cast<double>(ns_since(start)));
        }
        search_ns += median(search_pass);
        insert_ns += median(insert_pass);
        searches += stack->keys.size();
        inserts += first_sight.size();
    }
    g_sink = sink;
    return {searches == 0 ? 0.0 : search_ns / static_cast<double>(searches),
            inserts == 0 ? 0.0 : insert_ns / static_cast<double>(inserts)};
}

/// Replay each controller's captured command stream through a standalone
/// DramController of the same configuration, in the style of
/// bench_dram_sched: every RD/WR that starts a bucket access becomes one
/// bucket-sized request arriving at the cycle the run issued it. Returns host
/// ns per command the replay issues.
double replay_ddr(const TracedRun& run) {
    u64 commands = 0;
    double ns = 0.0;
    for (const auto& stack : run.stacks) {
        const core::FlowLutConfig& lut = stack->analyzer.lut().config();
        dram::ControllerConfig config = lut.controller;
        config.interleave_bytes = lut.bucket_stride();
        if (config.map_policy != dram::MapPolicy::kBankLow) die("DDR replay needs kBankLow");
        const dram::Geometry& geometry = lut.geometry;
        const u64 interleave = config.interleave_bytes;
        const u64 chunks_per_row = geometry.row_bytes() / interleave;
        for (const auto& captured : stack->commands) {
            struct Arrival {
                Cycle at;
                bool write;
                u64 address;
            };
            std::vector<Arrival> arrivals;
            for (const dram::TracedCommand& traced : captured) {
                const dram::Command& c = traced.cmd;
                const bool write = c.type == dram::CommandType::kWrite;
                if (c.type != dram::CommandType::kRead && !write) continue;
                const u64 row_offset = u64{c.col} * geometry.bus_bytes;
                if (row_offset % interleave != 0) continue;  // a later burst of one access.
                // Invert the kBankLow map: chunk = [row | chunk-in-row | bank].
                const u64 chunk = (u64{c.row} * chunks_per_row + row_offset / interleave) *
                                      geometry.banks +
                                  c.bank;
                arrivals.push_back({traced.at, write, chunk * interleave});
            }
            std::vector<dram::TracedCommand> issued;
            issued.reserve(captured.size() + 1024);
            dram::DramController controller("replay", lut.timings, geometry, config);
            controller.set_command_trace(&issued);
            const std::vector<u8> payload(lut.bucket_stride(), 0xA5);
            const u32 bursts = lut.bursts_per_bucket();
            const auto start = Clock::now();
            std::size_t next = 0;
            u64 id = 0;
            Cycle now = 0;
            while (next < arrivals.size() || !controller.idle()) {
                if (next < arrivals.size() && arrivals[next].at <= now) {
                    dram::MemRequest request;
                    request.id = ++id;
                    request.is_write = arrivals[next].write;
                    request.byte_address = arrivals[next].address;
                    request.bursts = bursts;
                    if (request.is_write) request.write_data = payload;
                    if (controller.enqueue(std::move(request))) ++next;
                }
                controller.tick(now);
                while (auto response = controller.pop_response()) {
                    controller.recycle_buffer(std::move(response->data));
                }
                Cycle jump = now + 1;
                if (controller.stalled_until() > jump) jump = controller.stalled_until();
                if (next < arrivals.size() && arrivals[next].at > now && arrivals[next].at < jump) {
                    jump = arrivals[next].at;
                }
                now = jump;
            }
            ns += static_cast<double>(ns_since(start));
            if (!controller.protocol_status().is_ok()) die("DDR replay protocol violation");
            commands += issued.size();
        }
    }
    return commands == 0 ? 0.0 : ns / static_cast<double>(commands);
}

void write_span_file(const std::string& path, const Tracer& tracer) {
    if (path.empty()) return;
    std::ofstream out(path, std::ios::trunc);
    if (!out) return;
    // Chrome trace-event JSON: one complete event per span; tid = stack,
    // args.packet = the draw index of the packet the span served.
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < tracer.raw.size(); ++i) {
        const RawSpan& s = tracer.raw[i];
        char line[256];
        std::snprintf(line, sizeof line,
                      "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                      "\"dur\":%.3f,\"args\":{\"packet\":%llu}}",
                      i == 0 ? "" : ",\n", kSpanNames[s.id], s.stack,
                      static_cast<double>(s.start_ns) / 1e3, static_cast<double>(s.dur_ns) / 1e3,
                      static_cast<unsigned long long>(s.packet));
        out << line;
    }
    out << "]}\n";
}

int cmd_trace(const Plan& plan, bool replay, const std::string& span_file) {
    TimingRegistry timing;
    TracedRun run;
    traced_run(plan, timing.registry, replay, run);
    const double system_hz = plan.tree.runner.analyzer.lut.system_clock_hz;
    const Outcome outcome = outcome_of(run, system_hz);

    // Per-layer counters, summed over stacks.
    u64 resolved_inflight = 0, input_full = 0, events = 0, active = 0, table_size = 0,
        table_capacity = 0, cam_entries = 0, cam_capacity = 0, deletes = 0, bursts = 0,
        released = 0, stepped = 0, sim_cycles = 0, rejected = 0;
    u64 reads = 0, writes = 0, row_hits = 0, row_misses = 0, row_conflicts = 0, turnarounds = 0;
    obs::Histogram latency;
    obs::Histogram read_latency;
    for (const auto& stack : run.stacks) {
        core::FlowLut& lut = stack->analyzer.lut();
        resolved_inflight += lut.stats().resolved_inflight;
        input_full += lut.stats().rejected_input_full;
        events += stack->analyzer.events().size();
        active += lut.flow_state().active_flows();
        table_size += lut.table().size();
        table_capacity += lut.table().capacity();
        cam_entries += lut.table().cam_entries();
        cam_capacity += lut.config().cam_capacity;
        stepped += stack->stepped;
        sim_cycles += stack->now;
        rejected += stack->rejected;
        for (core::Path path : {core::Path::kA, core::Path::kB}) {
            const core::UpdateBlockStats& update = lut.update_block(path).stats();
            deletes += update.deletes_accepted;
            bursts += update.bursts_released;
            released += update.requests_released;
            const dram::ControllerStats& ddr = lut.controller(path).stats();
            reads += ddr.reads_completed;
            writes += ddr.writes_completed;
            row_hits += ddr.row_hits;
            row_misses += ddr.row_misses;
            row_conflicts += ddr.row_conflicts;
            turnarounds += ddr.rw_turnarounds;
            read_latency.merge(ddr.read_latency);
        }
        if (const obs::Histogram* hist = lut.latency_histogram(); hist != nullptr) {
            latency.merge(*hist);
        }
    }

    double table_search_ns = 0.0, table_insert_ns = 0.0, ddr_ns_per_cmd = 0.0;
    if (replay) {
        std::tie(table_search_ns, table_insert_ns) = replay_table(run, 5);
        ddr_ns_per_cmd = replay_ddr(run);
    }
    write_span_file(span_file, run.tracer);

    const auto per = [](double value, u64 base) {
        return base == 0 ? 0.0 : value / static_cast<double>(base);
    };
    const auto ns_of = [&](SpanId id) { return static_cast<double>(run.tracer.spans[id].ns); };
    const double pkts = static_cast<double>(outcome.packets);
    const u64 row_total = row_hits + row_misses + row_conflicts;
    double covered = 0.0;
    for (int id = 0; id < kSpanCount; ++id) covered += ns_of(static_cast<SpanId>(id));

    Json layers;
    layers.num("hash.ns_per_key", per(ns_of(kHash), run.tracer.spans[kHash].calls))
        .num("analyzer.feed_ns_per_pkt", ns_of(kFeed) / pkts)
        .num("analyzer.retries_per_pkt", static_cast<double>(rejected) / pkts)
        .num("analyzer.step_ns_per_pkt", ns_of(kStep) / pkts)
        .num("analyzer.step_ns_per_cycle", per(ns_of(kStep), stepped))
        .num("analyzer.events", events)
        .num("sim.stepped_frac", per(static_cast<double>(stepped), sim_cycles))
        .num("sim.ff_ns_per_pkt", ns_of(kFastForward) / pkts)
        .num("lut.cycles_per_pkt", static_cast<double>(outcome.cycles) / pkts)
        .num("lut.cam_frac", per(static_cast<double>(outcome.cam_hits), outcome.completions))
        .num("lut.lu1_frac", per(static_cast<double>(outcome.lu1_hits), outcome.completions))
        .num("lut.lu2_frac", per(static_cast<double>(outcome.lu2_hits), outcome.completions))
        .num("lut.new_frac", per(static_cast<double>(outcome.new_flows), outcome.completions))
        .num("lut.drop_frac", static_cast<double>(outcome.drops) / pkts)
        .num("lut.resolved_inflight", resolved_inflight)
        .num("lut.input_full_per_pkt", static_cast<double>(input_full) / pkts)
        .num("table.load_frac", per(static_cast<double>(table_size), table_capacity))
        .num("table.cam_fill_frac", per(static_cast<double>(cam_entries), cam_capacity))
        .num("flow_state.active_end", active)
        .num("flow_state.expired_per_pkt", static_cast<double>(outcome.flows_expired) / pkts)
        .num("update.deletes_per_pkt", static_cast<double>(deletes) / pkts)
        .num("update.mean_burst_len", per(static_cast<double>(released), bursts))
        .num("ddr.reads_per_pkt", static_cast<double>(reads) / pkts)
        .num("ddr.writes_per_pkt", static_cast<double>(writes) / pkts)
        .num("ddr.row_hit_frac", per(static_cast<double>(row_hits), row_total))
        .num("ddr.row_conflict_frac", per(static_cast<double>(row_conflicts), row_total))
        .num("ddr.turnarounds_per_kpkt", 1000.0 * static_cast<double>(turnarounds) / pkts)
        .num("ddr.read_lat_p99_mclk", read_latency.percentile(0.99));
    if (replay) {
        layers.num("table.search_ns", table_search_ns)
            .num("table.insert_ns", table_insert_ns)
            .num("ddr.host_ns_per_cmd", ddr_ns_per_cmd);
    }

    Json spans;
    for (int id = 0; id < kSpanCount; ++id) {
        Json span;
        const Span& s = run.tracer.spans[id];
        span.num("calls", s.calls).num("ns", s.ns);
        spans.raw(kSpanNames[id], span.text());
    }

    Json json;
    json.str("kind", "trace");
    outcome.write(json);
    json.num("wall_s", run.wall_s)
        .num("covered_s", covered * 1e-9)
        .num("sim_lat_p50_ns", latency.percentile(0.50))
        .num("sim_lat_p99_ns", latency.percentile(0.99))
        .num("sim_lat_mean_ns", latency.mean())
        .num("sim_lat_samples", latency.count())
        .raw("spans", spans.text())
        .raw("layers", layers.text());
    std::printf("%s\n", json.text().c_str());
    return 0;
}

/// A fixed host-speed probe that shares no code with src/: hashing into a
/// 64 Ki-slot open-addressed table plus node-map churn, the kind of work the
/// flow stack does. run.py times it between repeats and scales host times by
/// it, so a stretch in which other tenants slow the host shows in the probe
/// too and cancels. Its inputs are fixed; it must never change.
int cmd_calibrate() {
    constexpr std::size_t kSlots = std::size_t{1} << 16;
    std::vector<u64> keys(kSlots, 0), values(kSlots, 0);
    std::unordered_map<u64, u32> nodes;
    u64 x = 88172645463325252ull, acc = 0;
    const auto start = Clock::now();
    for (u64 i = 0; i < 48'000'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const u64 key = x % 50'000 + 1;
        std::size_t slot = (key * 0x9e3779b97f4a7c15ull) >> 48;
        while (keys[slot] != 0 && keys[slot] != key) slot = (slot + 1) & (kSlots - 1);
        if (keys[slot] == 0) keys[slot] = key;
        values[slot] += i;
        acc += values[slot] >> 3;
        if ((i & 15) == 0) {
            nodes[key & 0x3fff] += 1;
            if (nodes.size() > 8000) nodes.erase(nodes.begin());
        }
    }
    const double seconds = static_cast<double>(ns_since(start)) * 1e-9;
    g_sink = acc;
    Json json;
    json.str("kind", "calibrate").num("cal_s", seconds);
    std::printf("%s\n", json.text().c_str());
    return 0;
}

int cmd_info() {
    Json json;
    json.str("kind", "info")
        .str("compiler", FLOWCAM_BENCH_COMPILER)
        .str("build_type", FLOWCAM_BENCH_BUILD_TYPE)
        .num("flowcam_simd", static_cast<u64>(FLOWCAM_BENCH_SIMD));
#ifdef NDEBUG
    json.flag("ndebug", true);
#else
    json.flag("ndebug", false);
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    json.flag("sanitizer", true);
#else
    json.flag("sanitizer", false);
#endif
    Json packets, threads;
    for (const Workload& w : workloads()) {
        packets.num(w.name, w.packets);
        threads.num(w.name, static_cast<u64>(w.jobs));
    }
    json.raw("packets", packets.text()).raw("threads", threads.text());
    std::printf("%s\n", json.text().c_str());
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) die("usage: flowcam_bench info|run|setup|trace [--key value ...]");
    const std::string command = argv[1];
    std::map<std::string, std::string> args;
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        if (key.rfind("--", 0) != 0) die("expected --key value, got '" + key + "'");
        args[key.substr(2)] = argv[i + 1];
    }
    const auto arg_u64 = [&](const std::string& key, u64 fallback) {
        const auto it = args.find(key);
        if (it == args.end()) return fallback;
        char* end = nullptr;
        const unsigned long long value = std::strtoull(it->second.c_str(), &end, 10);
        if (end == it->second.c_str() || *end != '\0') die("--" + key + " needs a whole number");
        return static_cast<u64>(value);
    };
    if (command == "info") return cmd_info();
    if (command == "calibrate") return cmd_calibrate();
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    die("refusing to measure a Debug or sanitizer build");
#endif
    const Plan plan = make_plan(args.count("workload") ? args["workload"] : "",
                                arg_u64("seed", 2014), arg_u64("packets", 0),
                                arg_u64("jobs", 0));
    if (command == "run") return cmd_run(plan, arg_u64("decorate", 0) != 0);
    if (command == "setup") return cmd_setup(plan);
    if (command == "trace") {
        return cmd_trace(plan, arg_u64("replay", 1) != 0,
                         args.count("span-file") ? args["span-file"] : "");
    }
    die("unknown command '" + command + "'");
}
