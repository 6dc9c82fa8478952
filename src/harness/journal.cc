#include "src/harness/journal.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace byterobust {
namespace {

constexpr char kMagic[] = "byterobust-journal v1";
constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

// One line, without its terminator. *had_newline says whether the line was
// actually terminated — a missing terminator is how crash truncation looks.
bool ReadLine(std::FILE* f, std::string* line, bool* had_newline) {
  line->clear();
  *had_newline = false;
  int c;
  while ((c = std::fgetc(f)) != EOF) {
    if (c == '\n') {
      *had_newline = true;
      return true;
    }
    line->push_back(static_cast<char>(c));
  }
  return !line->empty();
}

// Splits "key=value|key=value|..." (after the record tag) into a field map
// preserving nothing but the raw values; duplicate keys fail.
bool ParseFields(const std::string& body, std::map<std::string, std::string>* fields) {
  std::size_t pos = 0;
  while (pos <= body.size()) {
    const std::size_t end = std::min(body.find('|', pos), body.size());
    const std::string part = body.substr(pos, end - pos);
    const std::size_t eq = part.find('=');
    if (eq == std::string::npos || eq == 0) {
      return false;
    }
    if (!fields->emplace(part.substr(0, eq), part.substr(eq + 1)).second) {
      return false;
    }
    pos = end + 1;
    if (end == body.size()) {
      break;
    }
  }
  return true;
}

bool LookupField(const std::map<std::string, std::string>& fields, const char* key,
                 std::string* out) {
  const auto it = fields.find(key);
  if (it == fields.end()) {
    return false;
  }
  *out = it->second;
  return true;
}

bool ParseU64(const std::string& text, std::uint64_t* out, int base = 10) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(text.c_str(), &end, base);
  return errno == 0 && end == text.c_str() + text.size();
}

bool ParseDouble(const std::string& text, double* out) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size();
}

std::string FormatDays(double days) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", days);
  return buf;
}

// Summary doubles travel as raw IEEE-754 bit patterns ("-" when empty) so
// resumed aggregate folds are bit-exact.
std::string EncodeSummary(const std::vector<double>& summary) {
  if (summary.empty()) {
    return "-";
  }
  std::string out;
  char buf[20];
  for (std::size_t i = 0; i < summary.size(); ++i) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &summary[i], sizeof(bits));
    std::snprintf(buf, sizeof(buf), "%s%016" PRIx64, i == 0 ? "" : ":", bits);
    out += buf;
  }
  return out;
}

bool DecodeSummary(const std::string& text, std::vector<double>* summary) {
  summary->clear();
  if (text == "-") {
    return true;
  }
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t end = std::min(text.find(':', pos), text.size());
    std::uint64_t bits = 0;
    if (!ParseU64(text.substr(pos, end - pos), &bits, 16)) {
      return false;
    }
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    summary->push_back(value);
    pos = end + 1;
    if (end == text.size()) {
      break;
    }
  }
  return true;
}

std::string FormatDigest(std::uint64_t digest) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "fnv1a:%016" PRIx64, digest);
  return buf;
}

// Identity values are embedded raw in '|'-separated lines; the repo's
// scenario names are plain tokens, but reject the separators outright so a
// hostile name cannot smuggle extra fields.
bool IdentityValueSafe(const std::string& value) {
  return value.find('|') == std::string::npos && value.find('\n') == std::string::npos;
}

std::string IdentityLine(const CampaignIdentity& id) {
  std::string line = "campaign|command=" + id.command + "|scenario=" + id.scenario +
                     "|seeds=" + std::to_string(id.seeds) +
                     "|base_seed=" + std::to_string(id.base_seed) +
                     "|days=" + FormatDays(id.days) + "|fingerprint=" + id.fingerprint +
                     "\n";
  return line;
}

}  // namespace

std::uint64_t Fnv1a64(const std::string& bytes) {
  std::uint64_t hash = kFnvOffset;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kFnvPrime;
  }
  return hash;
}

std::string BinaryFingerprint() {
  static const std::string fingerprint = [] {
    std::FILE* f = std::fopen("/proc/self/exe", "rb");
    if (f == nullptr) {
      return std::string("unknown");
    }
    // Four FNV-1a lanes over 64-bit words, lane i taking words i, i+4, ...:
    // the lanes' multiplies overlap instead of forming one byte-serial chain.
    // The tail is zero-padded to a whole 32-byte block and the byte length is
    // folded in with the lanes.
    constexpr std::size_t kBlock = 4 * sizeof(std::uint64_t);
    std::uint64_t lanes[4] = {kFnvOffset, kFnvOffset, kFnvOffset, kFnvOffset};
    std::uint64_t length = 0;
    unsigned char buf[1 << 16];
    std::size_t have = 0;
    std::size_t n;
    do {
      n = std::fread(buf + have, 1, sizeof(buf) - have, f);
      have += n;
      length += n;
      if (n == 0 && have % kBlock != 0) {
        std::memset(buf + have, 0, kBlock - have % kBlock);
        have += kBlock - have % kBlock;
      }
      const std::size_t whole = have - have % kBlock;
      for (std::size_t off = 0; off < whole; off += kBlock) {
        for (std::size_t lane = 0; lane < 4; ++lane) {
          std::uint64_t word;
          std::memcpy(&word, buf + off + lane * sizeof(word), sizeof(word));
          lanes[lane] = (lanes[lane] ^ word) * kFnvPrime;
        }
      }
      std::memmove(buf, buf + whole, have - whole);
      have -= whole;
    } while (n > 0);
    const bool bad = std::ferror(f) != 0;
    std::fclose(f);
    std::string folded(reinterpret_cast<const char*>(lanes), sizeof(lanes));
    folded.append(reinterpret_cast<const char*>(&length), sizeof(length));
    char digest[32];
    std::snprintf(digest, sizeof(digest), "fnv1a64x4:%016" PRIx64, Fnv1a64(folded));
    return bad ? std::string("unknown") : std::string(digest);
  }();
  return fingerprint;
}

bool CampaignIdentity::Matches(const CampaignIdentity& other, std::string* why) const {
  if (command != other.command) {
    *why = "command mismatch (journal: " + command + ", campaign: " + other.command + ")";
    return false;
  }
  if (scenario != other.scenario) {
    *why = "scenario mismatch (journal: " + scenario + ", campaign: " + other.scenario + ")";
    return false;
  }
  if (seeds != other.seeds) {
    *why = "seeds mismatch (journal: " + std::to_string(seeds) +
           ", campaign: " + std::to_string(other.seeds) + ")";
    return false;
  }
  if (base_seed != other.base_seed) {
    *why = "base_seed mismatch (journal: " + std::to_string(base_seed) +
           ", campaign: " + std::to_string(other.base_seed) + ")";
    return false;
  }
  if (FormatDays(days) != FormatDays(other.days)) {
    *why = "days mismatch (journal: " + FormatDays(days) +
           ", campaign: " + FormatDays(other.days) + ")";
    return false;
  }
  if (fingerprint != "unknown" && other.fingerprint != "unknown" &&
      fingerprint != other.fingerprint) {
    *why = "binary fingerprint mismatch (journal written by a different build: " +
           fingerprint + " vs " + other.fingerprint + ")";
    return false;
  }
  return true;
}

CampaignJournal::~CampaignJournal() { Close(); }

bool CampaignJournal::open() const {
  const MutexLock lock(&mu_);
  return file_ != nullptr;
}

void CampaignJournal::Close() {
  const MutexLock lock(&mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

bool CampaignJournal::Create(const std::string& path, CampaignIdentity identity,
                             std::string* error, bool sync) {
  if (identity.fingerprint.empty()) {
    identity.fingerprint = BinaryFingerprint();
  }
  if (!IdentityValueSafe(identity.command) || !IdentityValueSafe(identity.scenario) ||
      !IdentityValueSafe(identity.fingerprint)) {
    *error = "journal identity fields must not contain '|' or newlines";
    return false;
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    *error = "could not create journal " + path;
    return false;
  }
  const std::string header = std::string(kMagic) + "\n" + IdentityLine(identity);
  if (std::fwrite(header.data(), 1, header.size(), f) != header.size() ||
      std::fflush(f) != 0) {
    std::fclose(f);
    *error = "could not write journal header to " + path;
    return false;
  }
  const MutexLock lock(&mu_);
  file_ = f;
  sync_ = sync;
  return true;
}

bool CampaignJournal::OpenForResume(const std::string& path, CampaignIdentity expect,
                                    std::map<int, JournalEntry>* completed,
                                    std::string* error, bool sync) {
  if (expect.fingerprint.empty()) {
    expect.fingerprint = BinaryFingerprint();
  }
  CampaignIdentity recorded;
  long valid_end = 0;
  if (!Load(path, &recorded, completed, &valid_end, error)) {
    return false;
  }
  std::string why;
  if (!recorded.Matches(expect, &why)) {
    *error = "cannot resume from " + path + ": " + why;
    return false;
  }
  // Drop any truncated tail before appending, so the next parse never sees
  // a fresh record glued onto half of an old one.
  if (truncate(path.c_str(), valid_end) != 0) {
    *error = "could not truncate journal " + path + " to its last complete record";
    return false;
  }
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    *error = "could not reopen journal " + path + " for appending";
    return false;
  }
  const MutexLock lock(&mu_);
  file_ = f;
  sync_ = sync;
  return true;
}

bool CampaignJournal::Append(const JournalEntry& entry) {
  std::string record = "seed|index=" + std::to_string(entry.index) +
                       "|summary=" + EncodeSummary(entry.summary) +
                       "|bytes=" + std::to_string(entry.element.size()) +
                       "|digest=" + FormatDigest(Fnv1a64(entry.element)) + "\n";
  record += entry.element;
  record += '\n';
  const MutexLock lock(&mu_);
  if (file_ == nullptr) {
    return false;
  }
  if (std::fwrite(record.data(), 1, record.size(), file_) != record.size() ||
      std::fflush(file_) != 0) {
    return false;
  }
  // --journal-sync: push the flushed record through the page cache so a
  // machine crash (not just a process crash) loses at most this record.
  return !sync_ || fdatasync(fileno(file_)) == 0;
}

bool CampaignJournal::Load(const std::string& path, CampaignIdentity* identity,
                           std::map<int, JournalEntry>* completed, long* valid_end,
                           std::string* error) {
  completed->clear();
  *valid_end = 0;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    *error = "could not open journal " + path;
    return false;
  }
  std::string line;
  bool terminated = false;
  bool ok = false;
  bool dropped_tail = false;
  do {  // single-pass parse; break out on the first hard error
    if (!ReadLine(f, &line, &terminated) || !terminated || line != kMagic) {
      *error = "journal " + path + " is not a byterobust journal (bad magic)";
      break;
    }
    if (!ReadLine(f, &line, &terminated) || !terminated ||
        line.rfind("campaign|", 0) != 0) {
      *error = "journal " + path + " is missing its campaign identity header";
      break;
    }
    std::map<std::string, std::string> fields;
    std::string seeds_text, base_seed_text, days_text;
    std::uint64_t seeds_u64 = 0;
    if (!ParseFields(line.substr(std::strlen("campaign|")), &fields) ||
        !LookupField(fields, "command", &identity->command) ||
        !LookupField(fields, "scenario", &identity->scenario) ||
        !LookupField(fields, "seeds", &seeds_text) || !ParseU64(seeds_text, &seeds_u64) ||
        !LookupField(fields, "base_seed", &base_seed_text) ||
        !ParseU64(base_seed_text, &identity->base_seed) ||
        !LookupField(fields, "days", &days_text) ||
        !ParseDouble(days_text, &identity->days) ||
        !LookupField(fields, "fingerprint", &identity->fingerprint)) {
      *error = "journal " + path + " has a malformed campaign identity header";
      break;
    }
    identity->seeds = static_cast<int>(seeds_u64);
    *valid_end = std::ftell(f);

    bool hard_error = false;
    while (true) {
      if (!ReadLine(f, &line, &terminated)) {
        break;  // clean EOF at a record boundary
      }
      if (!terminated) {
        dropped_tail = true;  // crash truncation mid-header
        break;
      }
      std::map<std::string, std::string> rec;
      std::string index_text, summary_text, bytes_text, digest_text;
      std::uint64_t index_u64 = 0, bytes_u64 = 0;
      JournalEntry entry;
      if (line.rfind("seed|", 0) != 0 ||
          !ParseFields(line.substr(std::strlen("seed|")), &rec) ||
          !LookupField(rec, "index", &index_text) || !ParseU64(index_text, &index_u64) ||
          !LookupField(rec, "summary", &summary_text) ||
          !DecodeSummary(summary_text, &entry.summary) ||
          !LookupField(rec, "bytes", &bytes_text) || !ParseU64(bytes_text, &bytes_u64) ||
          !LookupField(rec, "digest", &digest_text)) {
        *error = "journal " + path + " has a malformed seed record";
        hard_error = true;
        break;
      }
      entry.index = static_cast<int>(index_u64);
      if (entry.index < 0 || entry.index >= identity->seeds) {
        *error = "journal " + path + " records seed index " + index_text +
                 " outside [0, " + std::to_string(identity->seeds) + ")";
        hard_error = true;
        break;
      }
      entry.element.resize(bytes_u64);
      const std::size_t got =
          entry.element.empty()
              ? 0
              : std::fread(entry.element.data(), 1, entry.element.size(), f);
      if (got != entry.element.size() || std::fgetc(f) != '\n') {
        dropped_tail = true;  // crash truncation mid-payload
        break;
      }
      if (FormatDigest(Fnv1a64(entry.element)) != digest_text) {
        *error = "journal " + path + " seed " + index_text +
                 " fails its digest check (corrupt journal)";
        hard_error = true;
        break;
      }
      const int index = entry.index;
      if (!completed->emplace(index, std::move(entry)).second) {
        *error = "journal " + path + " records seed index " + index_text + " twice";
        hard_error = true;
        break;
      }
      *valid_end = std::ftell(f);
    }
    ok = !hard_error;
  } while (false);
  std::fclose(f);
  if (ok && dropped_tail) {
    std::fprintf(stderr,
                 "warning: journal %s ends in an incomplete record (interrupted "
                 "append) — dropping the tail, %zu complete seed(s) kept\n",
                 path.c_str(), completed->size());
  }
  return ok;
}

}  // namespace byterobust
