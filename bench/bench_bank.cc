// bench_bank — checkpoint-resume A/B for the memory-mapped sample bank
// (BENCH_PR8.json).
//
// Both legs open the same logical bank contents — a pretraining corpus of
// task sections (preliminary embeddings) plus sample-fate records — and
// make every sample usable again, which is exactly what a --resume run
// does before its first retrained sample:
//   * wholesale leg: read the retired single-blob file, CRC-check it, parse
//     it, and materialize every float in heap memory (the pre-mmap resume
//     path; its format code lives here, as this baseline).
//   * mmap leg: SampleBank::Open in read-only mode — map the file, scan
//     the frame headers, verify record CRCs — then borrow every section
//     zero-copy. No float is copied; untouched pages are never faulted in.
//
// Reported per leg: resume latency (mean/min/max over >=5 reps) and the
// resident-set growth the resume caused (/proc/self/statm delta — the RSS
// proxy for "does resume cost scale with bank size?"). The paired record
// bank_resume_mmap_vs_wholesale carries per-rep speedups; CI gates on its
// speedup_median. Smoke mode (--smoke or REPRO_SMOKE=1) shrinks the corpus
// from ~64MB to ~6MB but keeps >=5 reps so the median stays meaningful.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench/harness.h"
#include "common/binio.h"
#include "common/crc32.h"
#include "common/fileio.h"
#include "common/rng.h"
#include "comparator/bank_file.h"

namespace autocts {
namespace bench {
namespace {

/// ---- The wholesale bank format (the baseline leg) ----------------------
///
/// The pre-mmap bank image: everything materialized in memory, serialized
/// as one CRC-framed blob ("ACTSBNK1"). The library no longer reads it;
/// this bench keeps it as the resume baseline the mmap bank is gated
/// against.

constexpr uint64_t kWholesaleMagic = 0x41435453424e4b31ull;  // "ACTSBNK1"

struct BankImage {
  uint64_t config_hash = 0;
  struct Task {
    int task = 0;
    uint64_t key = 0;
    std::string name;
    std::vector<int> shape;
    std::vector<float> floats;
  };
  std::vector<Task> sections;
  std::vector<BankRecord> records;
};

std::string SerializeBankWholesale(const BankImage& image) {
  std::string payload;
  AppendPod(&payload, image.config_hash);
  AppendPod(&payload, static_cast<uint64_t>(image.sections.size()));
  for (const BankImage::Task& t : image.sections) {
    AppendPod(&payload, static_cast<int32_t>(t.task));
    AppendPod(&payload, t.key);
    AppendString(&payload, t.name);
    AppendPod(&payload, static_cast<uint32_t>(t.shape.size()));
    for (int d : t.shape) AppendPod(&payload, static_cast<int32_t>(d));
    AppendPod(&payload, static_cast<uint64_t>(t.floats.size()));
    AppendRaw(&payload, t.floats.data(), t.floats.size() * sizeof(float));
  }
  AppendPod(&payload, static_cast<uint64_t>(image.records.size()));
  for (const BankRecord& r : image.records) {
    AppendPod(&payload, static_cast<int32_t>(r.task));
    AppendPod(&payload, static_cast<int32_t>(r.slot));
    AppendPod(&payload, r.signature);
    AppendPod(&payload, r.r_prime);
    AppendPod(&payload, static_cast<uint8_t>(r.shared ? 1 : 0));
    AppendPod(&payload, static_cast<uint8_t>(r.quarantined ? 1 : 0));
    AppendPod(&payload, static_cast<int32_t>(r.retries));
    AppendString(&payload, r.note);
    AppendString(&payload, r.arch);
  }
  std::string out;
  AppendPod(&out, kWholesaleMagic);
  AppendPod(&out, Crc32(payload.data(), payload.size()));
  out += payload;
  return out;
}

StatusOr<BankImage> ParseBankWholesale(const std::string& bytes) {
  FrameReader reader(bytes, 0);
  uint64_t magic = 0;
  uint32_t crc = 0;
  if (!reader.Read(&magic) || !reader.Read(&crc)) {
    return Status::Error("truncated wholesale sample bank");
  }
  if (magic != kWholesaleMagic) {
    return Status::Error("not a wholesale sample bank (bad magic)");
  }
  const size_t payload_offset = sizeof(uint64_t) + sizeof(uint32_t);
  if (Crc32(bytes.data() + payload_offset, bytes.size() - payload_offset) !=
      crc) {
    return Status::Error("wholesale sample bank CRC mismatch");
  }
  BankImage image;
  uint64_t num_sections = 0;
  if (!reader.Read(&image.config_hash) || !reader.Read(&num_sections)) {
    return Status::Error("truncated wholesale sample bank");
  }
  for (uint64_t i = 0; i < num_sections; ++i) {
    BankImage::Task t;
    int32_t task = 0;
    uint32_t ndim = 0;
    if (!reader.Read(&task) || !reader.Read(&t.key) ||
        !reader.ReadString(&t.name) || !reader.Read(&ndim) || ndim > 8) {
      return Status::Error("malformed wholesale section " + std::to_string(i));
    }
    t.task = task;
    for (uint32_t d = 0; d < ndim; ++d) {
      int32_t dim = 0;
      if (!reader.Read(&dim) || dim < 0) {
        return Status::Error("malformed wholesale section " +
                             std::to_string(i));
      }
      t.shape.push_back(dim);
    }
    uint64_t count = 0;
    if (!reader.Read(&count) || !reader.ReadFloats(&t.floats, count)) {
      return Status::Error("malformed wholesale section " + std::to_string(i));
    }
    image.sections.push_back(std::move(t));
  }
  uint64_t num_records = 0;
  if (!reader.Read(&num_records)) {
    return Status::Error("truncated wholesale sample bank");
  }
  for (uint64_t i = 0; i < num_records; ++i) {
    BankRecord r;
    int32_t task = 0, slot = 0, retries = 0;
    uint8_t shared = 0, quarantined = 0;
    if (!reader.Read(&task) || !reader.Read(&slot) ||
        !reader.Read(&r.signature) || !reader.Read(&r.r_prime) ||
        !reader.Read(&shared) || !reader.Read(&quarantined) ||
        !reader.Read(&retries) || !reader.ReadString(&r.note) ||
        !reader.ReadString(&r.arch)) {
      return Status::Error("malformed wholesale record " + std::to_string(i));
    }
    r.task = task;
    r.slot = slot;
    r.shared = shared != 0;
    r.quarantined = quarantined != 0;
    r.retries = retries;
    image.records.push_back(std::move(r));
  }
  if (reader.remaining() != 0) {
    return Status::Error("trailing bytes in wholesale sample bank");
  }
  return image;
}

struct BankConfig {
  int sections = 40;
  int windows = 32;    ///< W of each [W, S, F'] section.
  int steps = 24;      ///< S.
  int repr_dim = 512;  ///< F'.
  int records = 2000;
  int reps = 7;
};

/// Resident set size in bytes (statm field 2 × page size); 0 on failure.
double ResidentBytes() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long total = 0, resident = 0;
  int got = std::fscanf(f, "%ld %ld", &total, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

double NowNs() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

BankImage MakeCorpus(const BankConfig& cfg) {
  BankImage image;
  image.config_hash = 4242;
  Rng rng(17);
  const int floats_per_section = cfg.windows * cfg.steps * cfg.repr_dim;
  for (int i = 0; i < cfg.sections; ++i) {
    BankImage::Task t;
    t.task = i;
    t.key = 1000u + static_cast<uint64_t>(i);
    t.name = "task" + std::to_string(i);
    t.shape = {cfg.windows, cfg.steps, cfg.repr_dim};
    t.floats.resize(static_cast<size_t>(floats_per_section));
    for (float& v : t.floats) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
    image.sections.push_back(std::move(t));
  }
  for (int i = 0; i < cfg.records; ++i) {
    BankRecord r;
    r.task = i % cfg.sections;
    r.slot = i / cfg.sections;
    r.signature = static_cast<uint64_t>(rng.Int(0, 1 << 30));
    r.r_prime = rng.Uniform(0.0, 2.0);
    r.shared = (i % 3 == 0);
    r.retries = i % 17 == 0 ? 1 : 0;
    r.arch = "B2C5H32I64U1d0";
    image.records.push_back(std::move(r));
  }
  return image;
}

/// The volatile sink every leg folds one float per section into, so the
/// work cannot be optimized away.
volatile float g_sink = 0.0f;

struct LegResult {
  std::vector<double> ns;   ///< Per-rep resume latency.
  double rss_delta = 0.0;   ///< RSS growth across the first repetition.
};

LegResult RunWholesale(const std::string& path, const BankConfig& cfg) {
  LegResult result;
  for (int rep = 0; rep < cfg.reps; ++rep) {
    double rss_before = ResidentBytes();
    double t0 = NowNs();
    StatusOr<std::string> bytes = ReadFileToString(path);
    if (!bytes.ok()) std::exit(1);
    StatusOr<BankImage> image = ParseBankWholesale(bytes.value());
    if (!image.ok()) std::exit(1);
    for (const BankImage::Task& t : image.value().sections) {
      g_sink = g_sink + t.floats.front() + t.floats.back();
    }
    if (image.value().records.empty()) std::exit(1);
    result.ns.push_back(NowNs() - t0);
    if (rep == 0) result.rss_delta = ResidentBytes() - rss_before;
  }
  return result;
}

LegResult RunMmap(const std::string& path, const BankConfig& cfg) {
  LegResult result;
  for (int rep = 0; rep < cfg.reps; ++rep) {
    double rss_before = ResidentBytes();
    double t0 = NowNs();
    auto bank = SampleBank::Open(path, 4242, SampleBank::Mode::kReadOnly);
    if (!bank.ok()) {
      std::cerr << "mmap open failed: " << bank.status().message() << "\n";
      std::exit(1);
    }
    if (bank.value()->records().empty()) std::exit(1);
    for (const BankSection& s : bank.value()->sections()) {
      Tensor t = bank.value()->BorrowSection(s);
      g_sink = g_sink + t.data()[0] + t.data()[t.numel() - 1];
    }
    result.ns.push_back(NowNs() - t0);
    if (rep == 0) result.rss_delta = ResidentBytes() - rss_before;
  }
  return result;
}

MicroBenchRecord Record(const std::string& op, const LegResult& leg) {
  MicroBenchRecord rec;
  rec.op = op;
  double sum = 0.0;
  for (double v : leg.ns) sum += v;
  rec.resume_ns = sum / static_cast<double>(leg.ns.size());
  rec.ns_per_iter = rec.resume_ns;
  rec.ns_min = *std::min_element(leg.ns.begin(), leg.ns.end());
  rec.ns_max = *std::max_element(leg.ns.begin(), leg.ns.end());
  rec.rss_bytes = leg.rss_delta;
  return rec;
}

int Main(int argc, char** argv) {
  BankConfig cfg;
  bool smoke = std::getenv("REPRO_SMOKE") != nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  if (smoke) {
    cfg.sections = 8;
    cfg.windows = 16;
    cfg.repr_dim = 256;
    cfg.records = 400;
    cfg.reps = 5;  // Keep >=5: the speedup median gate needs the spread.
  }

  const std::string dir = std::getenv("TMPDIR") != nullptr
                              ? std::string(std::getenv("TMPDIR"))
                              : std::string("/tmp");
  const std::string wholesale_path = dir + "/bench_bank_wholesale.bank";
  const std::string mmap_path = dir + "/bench_bank_mmap.bank";
  std::remove(mmap_path.c_str());

  BankImage corpus = MakeCorpus(cfg);
  if (!AtomicWriteFile(wholesale_path, SerializeBankWholesale(corpus)).ok()) {
    std::cerr << "cannot write " << wholesale_path << "\n";
    return 1;
  }
  {
    auto writer = SampleBank::Open(mmap_path, corpus.config_hash,
                                   SampleBank::Mode::kAppend);
    if (!writer.ok()) return 1;
    for (const BankImage::Task& t : corpus.sections) {
      if (!writer.value()
               ->AppendSection(t.task, t.key, t.name, t.shape,
                               t.floats.data())
               .ok()) {
        return 1;
      }
    }
    for (const BankRecord& r : corpus.records) {
      if (!writer.value()->AppendRecord(r).ok()) return 1;
    }
  }
  const double total_mb =
      static_cast<double>(cfg.sections) * cfg.windows * cfg.steps *
      cfg.repr_dim * 4.0 / (1024.0 * 1024.0);
  std::cout << "[bank] corpus: " << cfg.sections << " sections, "
            << cfg.records << " records, ~" << total_mb << " MB of floats\n";

  // mmap leg first: it touches almost nothing, so the wholesale leg's heap
  // growth cannot be mistaken for mapping cost.
  LegResult mmap_leg = RunMmap(mmap_path, cfg);
  LegResult wholesale_leg = RunWholesale(wholesale_path, cfg);

  std::vector<double> speedups;
  for (int rep = 0; rep < cfg.reps; ++rep) {
    speedups.push_back(wholesale_leg.ns[static_cast<size_t>(rep)] /
                       mmap_leg.ns[static_cast<size_t>(rep)]);
  }
  std::sort(speedups.begin(), speedups.end());

  std::vector<MicroBenchRecord> records;
  records.push_back(Record("bank_resume_wholesale", wholesale_leg));
  records.push_back(Record("bank_resume_mmap", mmap_leg));
  {
    MicroBenchRecord ab = Record("bank_resume_mmap_vs_wholesale", mmap_leg);
    ab.speedup_min = speedups.front();
    ab.speedup_median = speedups[speedups.size() / 2];
    ab.speedup_max = speedups.back();
    // RSS ratio rides along: how much smaller the mmap leg's footprint is.
    ab.rss_bytes = mmap_leg.rss_delta;
    records.push_back(ab);
  }
  WriteBenchJson("BENCH_PR8.json", records);

  std::cout << "[bank] wholesale resume " << wholesale_leg.ns[0] / 1e6
            << " ms (rep 0), rss +" << wholesale_leg.rss_delta / 1e6
            << " MB\n[bank] mmap resume " << mmap_leg.ns[0] / 1e6
            << " ms (rep 0), rss +" << mmap_leg.rss_delta / 1e6
            << " MB\n[bank] speedup min " << speedups.front() << ", median "
            << speedups[speedups.size() / 2] << ", max " << speedups.back()
            << "\n";
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace autocts

int main(int argc, char** argv) { return autocts::bench::Main(argc, argv); }
