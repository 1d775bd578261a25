#include "shard/shard.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/binio.h"
#include "common/clock.h"
#include "common/fault.h"
#include "common/socketio.h"
#include "common/subprocess.h"
#include "comparator/bank_file.h"

namespace autocts {
namespace {

namespace fs = std::filesystem;

// ---- counters (the RuntimeStats "shard" family) --------------------------

struct ShardCounters {
  std::atomic<uint64_t> runs{0};
  std::atomic<uint64_t> shards_total{0};
  std::atomic<uint64_t> shards_done{0};
  std::atomic<uint64_t> shards_resumed{0};
  std::atomic<uint64_t> shards_stolen{0};
  std::atomic<uint64_t> shards_reclaimed{0};
  std::atomic<uint64_t> worker_restarts{0};
  std::atomic<uint64_t> heartbeats{0};
  std::atomic<uint64_t> corrupt_frames{0};
  std::atomic<uint64_t> bytes_in{0};
  std::atomic<uint64_t> bytes_out{0};
};

ShardCounters& Counters() {
  static ShardCounters* counters = new ShardCounters();
  return *counters;
}

ShardStats SnapshotCounters() {
  const ShardCounters& c = Counters();
  ShardStats s;
  s.runs = c.runs.load(std::memory_order_relaxed);
  s.shards_total = c.shards_total.load(std::memory_order_relaxed);
  s.shards_done = c.shards_done.load(std::memory_order_relaxed);
  s.shards_resumed = c.shards_resumed.load(std::memory_order_relaxed);
  s.shards_stolen = c.shards_stolen.load(std::memory_order_relaxed);
  s.shards_reclaimed = c.shards_reclaimed.load(std::memory_order_relaxed);
  s.worker_restarts = c.worker_restarts.load(std::memory_order_relaxed);
  s.heartbeats = c.heartbeats.load(std::memory_order_relaxed);
  s.corrupt_frames = c.corrupt_frames.load(std::memory_order_relaxed);
  s.bytes_in = c.bytes_in.load(std::memory_order_relaxed);
  s.bytes_out = c.bytes_out.load(std::memory_order_relaxed);
  return s;
}

void EnsureProviderRegistered() {
  static bool registered = [] {
    RegisterShardStatsProvider(&SnapshotCounters);
    return true;
  }();
  (void)registered;
}

// ---- wire protocol -------------------------------------------------------
//
// Frame kinds over each worker's socketpair (payloads built/parsed with the
// common/binio.h helpers; the transport framing and CRC live in
// common/socketio.h). The full frame table is documented in DESIGN.md
// "Sharded pretraining".

enum ShardMsg : uint32_t {
  kMsgHello = 1,      ///< worker -> coord: u32 ordinal. Sent once on start.
  kMsgRequest = 2,    ///< worker -> coord: u32 ordinal. "Give me a shard."
  kMsgAssign = 3,     ///< coord -> worker: u32 task. "Train this shard."
  kMsgNoWork = 4,     ///< coord -> worker: empty. "Everything done; exit."
  kMsgHeartbeat = 5,  ///< worker -> coord: u32 ordinal, u32 task, u64 done.
  kMsgDone = 6,       ///< worker -> coord: u32 ordinal, u32 task.
};

constexpr size_t kWireFrameHeaderBytes =
    sizeof(uint32_t) * 2 + sizeof(uint64_t);

std::string ShardBankPath(const std::string& dir, int ordinal) {
  return dir + "/bank.shard-" + std::to_string(ordinal);
}

BankRecord RecordFromSample(int task, int slot, const LabeledSample& sample) {
  BankRecord r;
  r.task = task;
  r.slot = slot;
  r.signature = SampleFateSignature(sample);
  r.r_prime = sample.r_prime;
  r.shared = sample.shared;
  r.quarantined = sample.quarantined;
  r.retries = sample.retries;
  r.note = sample.note;
  r.arch = sample.arch_hyper.Signature();
  return r;
}

// ---- worker process ------------------------------------------------------

/// The worker-side persistence hook: fates land in the worker's own
/// exclusively-flocked `bank.shard-K`, with restore served from whatever
/// that file already held (a previous incarnation's work, after a
/// coordinator resume re-used the ordinal). Each commit doubles as the
/// heartbeat tick and the kShardWorkerKill probe site — a killed worker
/// leaves every committed sample on disk and nothing else, exactly like a
/// real SIGKILL.
class WorkerBankHook : public SampleBankHook {
 public:
  WorkerBankHook(SampleBank* bank, FrameChannel* channel, int ordinal,
                 int heartbeat_ms)
      : bank_(bank),
        channel_(channel),
        ordinal_(ordinal),
        heartbeat_ms_(heartbeat_ms) {
    for (const BankRecord& r : bank->records()) {
      known_[{r.task, r.slot}] = r;
    }
  }

  void set_current_task(int task) { current_task_ = task; }

  bool Restore(int task, int slot, LabeledSample* sample) override {
    auto it = known_.find({task, slot});
    if (it == known_.end()) return false;
    if (it->second.signature != SampleFateSignature(*sample)) return false;
    sample->r_prime = it->second.r_prime;
    sample->quarantined = it->second.quarantined;
    sample->retries = it->second.retries;
    sample->note = it->second.note;
    return true;
  }

  void Commit(int task, int slot, const LabeledSample& sample) override {
    // Injected worker death, probed per spawn ordinal: everything committed
    // so far is on disk, this sample is not.
    if (AnyFaultArmed() &&
        FaultFires(FaultPoint::kShardWorkerKill, ordinal_)) {
      ::_exit(137);
    }
    if (known_.count({task, slot}) != 0) return;  // restored; already banked
    if (!bank_->AppendRecord(RecordFromSample(task, slot, sample)).ok()) {
      ::_exit(3);
    }
    ++samples_done_;
    const Clock::time_point now = Clock::now();
    if (!heartbeat_sent_ ||
        now - last_heartbeat_ >= std::chrono::milliseconds(heartbeat_ms_)) {
      std::string payload;
      AppendPod(&payload, static_cast<uint32_t>(ordinal_));
      AppendPod(&payload, static_cast<uint32_t>(current_task_));
      AppendPod(&payload, samples_done_);
      (void)channel_->Send(kMsgHeartbeat, payload);
      last_heartbeat_ = now;
      heartbeat_sent_ = true;
    }
  }

 private:
  SampleBank* bank_;
  FrameChannel* channel_;
  int ordinal_;
  int heartbeat_ms_;
  int current_task_ = -1;
  uint64_t samples_done_ = 0;
  std::map<std::pair<int, int>, BankRecord> known_;
  Clock::time_point last_heartbeat_{};
  bool heartbeat_sent_ = false;
};

/// Body of one forked worker. Rebuilds the identical plan (hook-free: the
/// serial pass is cheap next to one training, and recomputing keeps workers
/// independent of the coordinator's checkpoint files), then claims shards
/// until the coordinator says NoWork. Exit codes: 0 clean, 2 setup failure,
/// 3 protocol/IO failure, 137 injected kill.
int RunShardWorker(int fd, int ordinal, const std::vector<ForecastTask>& tasks,
                   const JointSearchSpace& space, const TaskEncoder& encoder,
                   const ScaleConfig& scale,
                   const SampleCollectionOptions& options,
                   const ShardOptions& shard, uint64_t seed) {
  SetFrameFaultAddress(ordinal);
  FrameChannel channel(fd);
  ThreadPool pool(shard.worker_threads);
  ExecContext wctx{&pool, seed};
  CollectPlan plan =
      PlanCollectSamples(tasks, space, encoder, scale, options, wctx, nullptr);
  StatusOr<std::unique_ptr<SampleBank>> bank_or = SampleBank::Open(
      ShardBankPath(shard.dir, ordinal), shard.config_hash,
      SampleBank::Mode::kAppend);
  if (!bank_or.ok()) return 2;
  SampleBank* bank = bank_or.value().get();
  std::set<std::pair<int, uint64_t>> have_sections;
  for (const BankSection& s : bank->sections()) {
    have_sections.insert({s.task, s.key});
  }
  WorkerBankHook hook(bank, &channel, ordinal, shard.heartbeat_ms);
  std::string ident;
  AppendPod(&ident, static_cast<uint32_t>(ordinal));
  if (!channel.Send(kMsgHello, ident).ok()) return 3;
  for (;;) {
    if (!channel.Send(kMsgRequest, ident).ok()) return 3;
    StatusOr<SocketFrame> frame = channel.Recv(-1);
    if (!frame.ok()) return 3;  // coordinator gone or frame corrupted
    if (frame.value().kind == kMsgNoWork) break;
    if (frame.value().kind != kMsgAssign) return 3;
    FrameReader reader(frame.value().payload, 0);
    uint32_t task = 0;
    if (!reader.Read(&task) || task >= tasks.size()) return 3;
    const int t = static_cast<int>(task);
    const uint64_t key = TaskSectionKey(tasks[t], options.windows_per_task);
    if (have_sections.count({t, key}) == 0) {
      const Tensor& pre = plan.sets[t].preliminary;
      if (!bank->AppendSection(t, key, tasks[t].name(), pre.shape(),
                               pre.data().data())
               .ok()) {
        return 3;
      }
      have_sections.insert({t, key});
    }
    hook.set_current_task(t);
    const std::pair<int64_t, int64_t> range = plan.TaskRange(t);
    TrainPlannedSamples(&plan, range.first, range.second, wctx, &hook);
    std::string done = ident;
    AppendPod(&done, task);
    if (!channel.Send(kMsgDone, done).ok()) return 3;
  }
  return 0;
}

// ---- coordinator ---------------------------------------------------------

struct ShardState {
  enum class S { kNeeded, kAssigned, kDone };
  S state = S::kNeeded;
  int owner = -1;  ///< Spawn ordinal of the assigned worker.
  Clock::time_point last_progress{};
  int reassignments = 0;
};

struct WorkerProc {
  pid_t pid = -1;
  int ordinal = -1;
  std::unique_ptr<FrameChannel> channel;
  bool connected = false;  ///< Channel open and believed healthy.
  bool reaped = false;
  bool parked = false;  ///< Sent Request; waiting for work to exist.
  int current_shard = -1;
};

/// Owns the worker processes for the duration of a coordinated run. The
/// destructor is the single cleanup path — on any exit (success, error
/// Status, or a thrown InjectedKill modelling a coordinator crash) every
/// still-running child is SIGKILLed and reaped, so no worker outlives the
/// coordinator and no flock outlives a worker.
class WorkerGroup {
 public:
  ~WorkerGroup() {
    for (WorkerProc& w : workers) {
      if (w.channel) w.channel->Close();
      if (!w.reaped && w.pid > 0) {
        KillChild(w.pid);
        w.reaped = true;
      }
    }
  }

  // A deque, not a vector: the poll sweep holds WorkerProc* across
  // spawn_worker() calls (replacement workers forked mid-sweep), and deque
  // push_back never invalidates references to existing elements.
  std::deque<WorkerProc> workers;
};

/// The shard fates accumulated from checkpoint restores and shard-bank
/// scans, keyed by canonical (task, slot).
using FateMap = std::map<std::pair<int, int>, LabeledSample>;

LabeledSample ExpectedSample(const PendingSample& ps) {
  LabeledSample s;
  s.arch_hyper = ps.arch_hyper;
  s.shared = ps.shared;
  return s;
}

/// True when a SampleBank::Open failure positively identifies the file as
/// unusable for this run — written under another configuration, or
/// structurally corrupt beyond the torn tails kAppend already recovers.
/// Matches the error strings bank_file.cc emits for exactly those states;
/// everything else (held append lock, EMFILE/EIO/permission trouble from
/// the mmap or writer open) may be transient and must not condemn the file.
bool BankOpenIdentifiesStaleState(const std::string& msg) {
  return msg.find("different configuration") != std::string::npos ||
         msg.find("bad magic") != std::string::npos ||
         msg.find("unsupported version") != std::string::npos ||
         msg.find("header CRC mismatch") != std::string::npos ||
         msg.find("at offset") != std::string::npos;  // frame-scan corruption
}

/// Scans every `bank.shard-*` in the run directory and absorbs
/// signature-verified fates. Opening kAppend recovers torn tails (the
/// after-kill state of a worker bank); a bank that provably belongs to a
/// different configuration (or is corrupt past recovery) is deleted so a
/// worker can recreate the path, while any other open failure — lock held,
/// transient IO — skips the file and leaves its committed work on disk for
/// a later pass. Dedup: the first fate absorbed for a (task, slot) wins —
/// duplicates from stolen shards are bit-identical by the determinism
/// contract, so "first wins" is a no-double-count rule, not a tie-break.
void AbsorbShardBanks(const ShardOptions& shard, const CollectPlan& plan,
                      const std::map<std::pair<int, int>, size_t>& slots,
                      FateMap* fates) {
  std::error_code ec;
  std::vector<fs::path> paths;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(shard.dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("bank.shard-", 0) == 0) paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  for (const fs::path& path : paths) {
    StatusOr<std::unique_ptr<SampleBank>> bank = SampleBank::Open(
        path.string(), shard.config_hash, SampleBank::Mode::kAppend);
    if (!bank.ok()) {
      if (BankOpenIdentifiesStaleState(bank.status().message())) {
        fs::remove(path, ec);
      }
      continue;
    }
    for (const BankRecord& r : bank.value()->records()) {
      const std::pair<int, int> key{r.task, r.slot};
      if (fates->count(key) != 0) continue;
      auto it = slots.find(key);
      if (it == slots.end()) continue;
      LabeledSample s = ExpectedSample(plan.pending[it->second]);
      if (r.signature != SampleFateSignature(s)) continue;
      s.r_prime = r.r_prime;
      s.quarantined = r.quarantined;
      s.retries = r.retries;
      s.note = r.note;
      (*fates)[key] = s;
    }
  }
}

/// Rebuilds `merged.bank` from the plan and the verified fates in canonical
/// order — section then records per task, tasks ascending, slots ascending.
/// Every byte depends only on (plan, fates), both of which are worker-count
/// invariant, so this file memcmp-matches across any execution history.
Status WriteMergedBank(const ShardOptions& shard, const CollectPlan& plan,
                       const std::vector<ForecastTask>& tasks,
                       const SampleCollectionOptions& options,
                       const FateMap& fates) {
  const std::string path = MergedBankPath(shard.dir);
  std::error_code ec;
  fs::remove(path, ec);
  StatusOr<std::unique_ptr<SampleBank>> bank =
      SampleBank::Open(path, shard.config_hash, SampleBank::Mode::kAppend);
  if (!bank.ok()) return bank.status();
  for (size_t t = 0; t < tasks.size(); ++t) {
    const Tensor& pre = plan.sets[t].preliminary;
    Status appended = bank.value()->AppendSection(
        static_cast<int>(t),
        TaskSectionKey(tasks[t], options.windows_per_task), tasks[t].name(),
        pre.shape(), pre.data().data());
    if (!appended.ok()) return appended;
    for (size_t slot = 0; slot < plan.sets[t].samples.size(); ++slot) {
      auto it = fates.find({static_cast<int>(t), static_cast<int>(slot)});
      if (it == fates.end()) {
        return Status::Error("merge missing fate for task " +
                             std::to_string(t) + " slot " +
                             std::to_string(slot));
      }
      appended = bank.value()->AppendRecord(RecordFromSample(
          static_cast<int>(t), static_cast<int>(slot), it->second));
      if (!appended.ok()) return appended;
    }
  }
  return Status::Ok();
}

/// Forks workers and serves shards until every needed shard is done (or the
/// run cannot make progress). Single-threaded poll loop; all socket IO goes
/// through here.
Status RunCoordinatorLoop(const std::vector<ForecastTask>& tasks,
                          const JointSearchSpace& space,
                          const TaskEncoder& encoder, const ScaleConfig& scale,
                          const SampleCollectionOptions& options,
                          const ShardOptions& shard, uint64_t seed,
                          std::vector<ShardState>* states) {
  SetFrameFaultAddress(kShardCoordinatorAddress);
  int needed = 0;
  for (const ShardState& s : *states) {
    if (s.state != ShardState::S::kDone) ++needed;
  }
  if (needed == 0) return Status::Ok();
  const int num_workers = std::max(1, std::min(shard.num_workers, needed));
  const int max_restarts = shard.max_worker_restarts < 0
                               ? num_workers
                               : shard.max_worker_restarts;
  WorkerGroup group;
  int next_ordinal = 0;
  int restarts_used = 0;

  auto spawn_worker = [&]() -> Status {
    int fds[2];
    Status made = MakeSocketPair(fds);
    if (!made.ok()) return made;
    const int ordinal = next_ordinal++;
    StatusOr<pid_t> pid = SpawnChild([&, ordinal, fds]() -> int {
      // The child inherited every earlier worker's parent-side fd; close
      // them all so a sibling's EOF detection only depends on the
      // coordinator, then run with our own end.
      for (const WorkerProc& other : group.workers) {
        if (other.channel) ::close(other.channel->fd());
      }
      ::close(fds[0]);
      return RunShardWorker(fds[1], ordinal, tasks, space, encoder, scale,
                            options, shard, seed);
    });
    if (!pid.ok()) {
      ::close(fds[0]);
      ::close(fds[1]);
      return pid.status();
    }
    ::close(fds[1]);
    WorkerProc w;
    w.pid = pid.value();
    w.ordinal = ordinal;
    w.channel = std::make_unique<FrameChannel>(fds[0]);
    w.connected = true;
    group.workers.push_back(std::move(w));
    return Status::Ok();
  };

  auto send_to = [&](WorkerProc* w, uint32_t kind,
                     const std::string& payload) -> bool {
    if (!w->connected) return false;
    if (!w->channel->Send(kind, payload).ok()) return false;
    Counters().bytes_out.fetch_add(kWireFrameHeaderBytes + payload.size(),
                                   std::memory_order_relaxed);
    return true;
  };

  // Puts a worker's in-flight shard back on the needed list. `stolen`
  // distinguishes a live-but-silent worker (work stealing) from a dead or
  // dropped one (reclaim); the no-double-count guarantee comes from the
  // merge-time signature dedup, not from preventing double training.
  auto release_shard = [&](WorkerProc* w, bool stolen) {
    const int t = w->current_shard;
    w->current_shard = -1;
    if (t < 0) return;
    ShardState& st = (*states)[t];
    if (st.state != ShardState::S::kAssigned || st.owner != w->ordinal) return;
    st.state = ShardState::S::kNeeded;
    st.owner = -1;
    ++st.reassignments;
    if (stolen) {
      Counters().shards_stolen.fetch_add(1, std::memory_order_relaxed);
    } else {
      Counters().shards_reclaimed.fetch_add(1, std::memory_order_relaxed);
    }
  };

  auto drop_worker = [&](WorkerProc* w) {
    if (w->channel) w->channel->Close();
    w->connected = false;
    w->parked = false;
    release_shard(w, /*stolen=*/false);
    int code = 0;
    if (!w->reaped && TryReapChild(w->pid, &code)) w->reaped = true;
  };

  auto all_done = [&]() {
    for (const ShardState& s : *states) {
      if (s.state != ShardState::S::kDone) return false;
    }
    return true;
  };

  // Serves one parked/requesting worker: an Assign when a shard is needed,
  // NoWork when everything is done, or stays parked while all remaining
  // shards are assigned elsewhere (the steal pass un-parks it later).
  auto serve_request = [&](WorkerProc* w) -> Status {
    int pick = -1;
    for (size_t t = 0; t < states->size(); ++t) {
      if ((*states)[t].state == ShardState::S::kNeeded) {
        pick = static_cast<int>(t);
        break;
      }
    }
    if (pick >= 0) {
      ShardState& st = (*states)[pick];
      if (st.reassignments > shard.max_shard_reassign) {
        return Status::Error("shard " + std::to_string(pick) +
                             " exceeded its reassignment bound (" +
                             std::to_string(shard.max_shard_reassign) + ")");
      }
      std::string payload;
      AppendPod(&payload, static_cast<uint32_t>(pick));
      if (!send_to(w, kMsgAssign, payload)) {
        drop_worker(w);
        return Status::Ok();
      }
      st.state = ShardState::S::kAssigned;
      st.owner = w->ordinal;
      st.last_progress = Clock::now();
      w->current_shard = pick;
      w->parked = false;
      return Status::Ok();
    }
    if (all_done()) {
      (void)send_to(w, kMsgNoWork, std::string());
      w->parked = false;
      // The worker exits on NoWork; the channel close below makes that
      // independent of whether it ever reads the frame.
      w->channel->Close();
      w->connected = false;
      return Status::Ok();
    }
    w->parked = true;
    return Status::Ok();
  };

  auto find_worker = [&](int ordinal) -> WorkerProc* {
    for (WorkerProc& w : group.workers) {
      if (w.ordinal == ordinal) return &w;
    }
    return nullptr;
  };

  for (int i = 0; i < num_workers; ++i) {
    Status s = spawn_worker();
    if (!s.ok() && group.workers.empty()) return s;
  }

  while (!all_done()) {
    // Liveness: without a connected worker (and with restarts exhausted)
    // the remaining shards can never complete.
    std::vector<WorkerProc*> connected;
    for (WorkerProc& w : group.workers) {
      if (w.connected) connected.push_back(&w);
    }
    if (connected.empty()) {
      if (restarts_used >= max_restarts) {
        return Status::Error(
            "sharded collection stalled: all workers lost and restart "
            "budget exhausted");
      }
      ++restarts_used;
      Counters().worker_restarts.fetch_add(1, std::memory_order_relaxed);
      Status s = spawn_worker();
      if (!s.ok()) return s;
      continue;
    }

    std::vector<struct pollfd> pfds;
    pfds.reserve(connected.size());
    for (WorkerProc* w : connected) {
      pfds.push_back({w->channel->fd(), POLLIN, 0});
    }
    const int ready = ::poll(pfds.data(), pfds.size(), 50);
    if (ready < 0 && errno != EINTR) {
      return Status::Error("coordinator poll failed");
    }
    for (size_t i = 0; i < pfds.size(); ++i) {
      WorkerProc* w = connected[i];
      if (!w->connected) continue;  // dropped earlier this sweep
      if ((pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      // Workers write whole frames in one send(), so a readable fd that
      // cannot produce a complete frame within one loop cadence means the
      // peer died mid-write or the length word is garbage. Keep the
      // timeout at the 50ms tick: blocking longer here would stall
      // assignment, heartbeats, and steals for every other worker.
      StatusOr<SocketFrame> frame = w->channel->Recv(50);
      if (!frame.ok()) {
        // EOF, CRC mismatch, framing damage, or a mid-frame stall: either
        // way this channel cannot be trusted any more (framing cannot
        // resync). Reclaim and let the restart/steal machinery cover the
        // shard.
        if (frame.status().message().find("CRC") != std::string::npos ||
            frame.status().message().find("corrupt") != std::string::npos) {
          Counters().corrupt_frames.fetch_add(1, std::memory_order_relaxed);
        }
        drop_worker(w);
        if (restarts_used < max_restarts && !all_done()) {
          ++restarts_used;
          Counters().worker_restarts.fetch_add(1, std::memory_order_relaxed);
          Status s = spawn_worker();
          if (!s.ok()) return s;
        }
        continue;
      }
      Counters().bytes_in.fetch_add(
          kWireFrameHeaderBytes + frame.value().payload.size(),
          std::memory_order_relaxed);
      FrameReader reader(frame.value().payload, 0);
      switch (frame.value().kind) {
        case kMsgHello:
          break;  // identity is implicit in the per-worker channel
        case kMsgRequest: {
          Status served = serve_request(w);
          if (!served.ok()) return served;
          break;
        }
        case kMsgHeartbeat: {
          uint32_t ordinal = 0, task = 0;
          uint64_t done = 0;
          if (reader.Read(&ordinal) && reader.Read(&task) &&
              reader.Read(&done)) {
            Counters().heartbeats.fetch_add(1, std::memory_order_relaxed);
            if (task < states->size()) {
              ShardState& st = (*states)[task];
              if (st.state == ShardState::S::kAssigned &&
                  st.owner == w->ordinal) {
                st.last_progress = Clock::now();
              }
            }
          }
          break;
        }
        case kMsgDone: {
          uint32_t ordinal = 0, task = 0;
          if (!reader.Read(&ordinal) || !reader.Read(&task) ||
              task >= states->size()) {
            drop_worker(w);
            break;
          }
          if (w->current_shard == static_cast<int>(task)) {
            w->current_shard = -1;
          }
          ShardState& st = (*states)[task];
          if (st.state != ShardState::S::kDone) {
            st.state = ShardState::S::kDone;
            st.owner = -1;
            Counters().shards_done.fetch_add(1, std::memory_order_relaxed);
            // Simulated coordinator crash at a shard boundary: the guard
            // kills the workers, the shard banks stay, and the next run
            // resumes from them.
            MaybeInjectKill(FaultPoint::kShardWorkerKill,
                            kShardCoordinatorAddress);
          }
          break;
        }
        default:
          drop_worker(w);
          break;
      }
    }

    // Steal pass: a shard whose owner has been silent past the timeout goes
    // back on the needed list the moment a parked worker could take it.
    const Clock::time_point now = Clock::now();
    bool any_parked = false;
    for (WorkerProc& w : group.workers) {
      any_parked = any_parked || (w.connected && w.parked);
    }
    if (any_parked) {
      for (size_t t = 0; t < states->size(); ++t) {
        ShardState& st = (*states)[t];
        if (st.state != ShardState::S::kAssigned) continue;
        if (now - st.last_progress <
            std::chrono::milliseconds(shard.steal_timeout_ms)) {
          continue;
        }
        WorkerProc* owner = find_worker(st.owner);
        if (owner != nullptr) release_shard(owner, /*stolen=*/true);
      }
      for (WorkerProc& w : group.workers) {
        if (!w.connected || !w.parked) continue;
        Status served = serve_request(&w);
        if (!served.ok()) return served;
      }
    }
  }

  // Everything is done. Parked workers (whose Request arrived while every
  // remaining shard was assigned elsewhere) get their NoWork now...
  for (WorkerProc& w : group.workers) {
    if (w.connected && w.parked) {
      Status served = serve_request(&w);
      if (!served.ok()) return served;
    }
  }
  // ...then a short grace window drains the final Request -> NoWork
  // handshakes still in flight; stragglers (workers duplicating a stolen
  // shard) are killed by the group destructor — their partial appends are
  // torn tails the next bank open truncates away, and their completed
  // duplicates dedup at merge.
  const Clock::time_point grace_end =
      Clock::now() + std::chrono::milliseconds(2000);
  while (Clock::now() < grace_end) {
    std::vector<WorkerProc*> connected;
    for (WorkerProc& w : group.workers) {
      if (w.connected) connected.push_back(&w);
    }
    if (connected.empty()) break;
    std::vector<struct pollfd> pfds;
    for (WorkerProc* w : connected) {
      pfds.push_back({w->channel->fd(), POLLIN, 0});
    }
    if (::poll(pfds.data(), pfds.size(), 50) <= 0) continue;
    for (size_t i = 0; i < pfds.size(); ++i) {
      WorkerProc* w = connected[i];
      if ((pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      StatusOr<SocketFrame> frame = w->channel->Recv(200);
      if (!frame.ok()) {
        drop_worker(w);
        continue;
      }
      Counters().bytes_in.fetch_add(
          kWireFrameHeaderBytes + frame.value().payload.size(),
          std::memory_order_relaxed);
      if (frame.value().kind == kMsgRequest) {
        (void)send_to(w, kMsgNoWork, std::string());
        w->channel->Close();
        w->connected = false;
      }
    }
  }
  for (WorkerProc& w : group.workers) {
    if (w.connected) {
      w.channel->Close();
      w.connected = false;
    }
    if (!w.reaped && w.pid > 0) {
      KillChild(w.pid);
      w.reaped = true;
    }
  }
  return Status::Ok();
}

}  // namespace

std::string MergedBankPath(const std::string& dir) {
  return dir + "/merged.bank";
}

ShardStats CurrentShardStats() { return SnapshotCounters(); }

StatusOr<std::vector<TaskSampleSet>> ShardedCollectSamples(
    const std::vector<ForecastTask>& tasks, const JointSearchSpace& space,
    const TaskEncoder& encoder, const ScaleConfig& scale,
    const SampleCollectionOptions& options, const ShardOptions& shard,
    const ExecContext& ctx, SampleBankHook* hook) {
  EnsureProviderRegistered();
  if (shard.dir.empty()) {
    return Status::Error("ShardOptions.dir must be set");
  }
  std::error_code ec;
  fs::create_directories(shard.dir, ec);
  if (ec) {
    return Status::Error("cannot create shard dir " + shard.dir + ": " +
                         ec.message());
  }
  Counters().runs.fetch_add(1, std::memory_order_relaxed);

  // The coordinator's plan is the source of truth: canonical task order,
  // expected (task, slot) signatures, and the preliminary-embedding bytes
  // the merged bank is rebuilt from. Workers rebuild the identical plan
  // after fork.
  CollectPlan plan =
      PlanCollectSamples(tasks, space, encoder, scale, options, ctx, hook);
  Counters().shards_total.fetch_add(tasks.size(), std::memory_order_relaxed);

  std::map<std::pair<int, int>, size_t> slots;
  for (size_t p = 0; p < plan.pending.size(); ++p) {
    slots[{plan.pending[p].task, plan.pending[p].slot}] = p;
  }

  // Fates already decided by previous runs: the pipeline checkpoint first
  // (its pipeline.bank survives unsharded runs too), then any shard banks a
  // crashed coordinator left behind.
  FateMap fates;
  if (hook != nullptr) {
    for (const auto& [key, p] : slots) {
      LabeledSample s = ExpectedSample(plan.pending[p]);
      if (hook->Restore(key.first, key.second, &s)) fates[key] = s;
    }
  }
  AbsorbShardBanks(shard, plan, slots, &fates);

  auto shard_complete = [&](int t) {
    for (size_t slot = 0; slot < plan.sets[t].samples.size(); ++slot) {
      if (fates.count({t, static_cast<int>(slot)}) == 0) return false;
    }
    return true;
  };

  std::vector<ShardState> states(tasks.size());
  bool any_needed = false;
  for (size_t t = 0; t < tasks.size(); ++t) {
    if (shard_complete(static_cast<int>(t))) {
      states[t].state = ShardState::S::kDone;
      // Resumed shards count as done too, so shards_done / shards_total is
      // the completion figure even after a resume; shards_resumed breaks
      // out how many of those were already on disk at start.
      Counters().shards_resumed.fetch_add(1, std::memory_order_relaxed);
      Counters().shards_done.fetch_add(1, std::memory_order_relaxed);
    } else {
      any_needed = true;
    }
  }

  if (any_needed) {
    Status run = RunCoordinatorLoop(tasks, space, encoder, scale, options,
                                    shard, ctx.seed, &states);
    if (!run.ok()) return run;
    AbsorbShardBanks(shard, plan, slots, &fates);
    for (size_t t = 0; t < tasks.size(); ++t) {
      if (!shard_complete(static_cast<int>(t))) {
        return Status::Error("shard " + std::to_string(t) +
                             " incomplete after coordination");
      }
    }
  }

  Status merged = WriteMergedBank(shard, plan, tasks, options, fates);
  if (!merged.ok()) return merged;

  // Canonical-order fill + forward: the inner hook (the pipeline
  // checkpoint) sees every fate exactly as the unsharded collector would
  // have committed it; identical fates are skipped by its own dedup, so a
  // resumed pipeline.bank stays byte-stable.
  for (const PendingSample& ps : plan.pending) {
    const LabeledSample& s = fates.at({ps.task, ps.slot});
    plan.sets[ps.task].samples[ps.slot] = s;
    if (hook != nullptr) hook->Commit(ps.task, ps.slot, s);
  }
  return std::move(plan.sets);
}

}  // namespace autocts
