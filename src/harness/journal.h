// Resumable campaign journal: an append-only on-disk manifest of committed
// seeds, so an interrupted campaign (`--journal FILE`) can be resumed
// (`--resume FILE`) without re-running — or losing — finished work, and the
// merged output stays byte-identical to an uninterrupted run.
//
// Format (text-framed, append-only; one flush per record so a process crash
// loses at most the record being written):
//
//   byterobust-journal v1
//   campaign|command=campaign|scenario=dense|seeds=8|base_seed=42|days=0.4|fingerprint=fnv1a64x4:...
//   seed|index=3|summary=<hex-bits>:<hex-bits>:...|bytes=531|digest=fnv1a:<hex>
//   <531 raw bytes of the rendered "runs" element>
//   seed|index=0|...
//
// Per-seed summary doubles are stored as raw IEEE-754 bit patterns so the
// aggregate fold over a resumed campaign is bit-exact. Each element carries
// an FNV-1a digest: a digest mismatch (corruption) rejects the journal,
// while a truncated trailing record — the crash case append-only journaling
// exists for — is dropped with a warning and everything before it is kept.

#ifndef SRC_HARNESS_JOURNAL_H_
#define SRC_HARNESS_JOURNAL_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "src/common/sync.h"
#include "src/common/thread_annotations.h"

namespace byterobust {

// FNV-1a 64-bit over bytes; the journal's element digest uses it.
std::uint64_t Fnv1a64(const std::string& bytes);

// Digest of this process's executable image (/proc/self/exe), hashed once per
// process in four word-wide FNV-1a lanes and formatted "fnv1a64x4:<hex>";
// "unknown" when the image cannot be read. A journal written by a different
// binary is rejected on resume — a rebuilt simulator may render different
// bytes for the same seed. Only creating or resuming a journal computes it.
std::string BinaryFingerprint();

// What identifies a campaign for resume purposes. --jobs / --stream are
// deliberately absent: they never change output bytes.
struct CampaignIdentity {
  std::string command;   // "campaign" | "fleet"
  std::string scenario;
  int seeds = 0;
  std::uint64_t base_seed = 0;
  double days = 0.0;
  // Empty means "this binary": Create and OpenForResume fill in
  // BinaryFingerprint(), so a campaign without a journal never hashes it.
  std::string fingerprint;

  // True when `other` names the same campaign; on mismatch fills *why with
  // the first differing field. Fingerprints compare only when both sides
  // know theirs ("unknown" matches anything).
  bool Matches(const CampaignIdentity& other, std::string* why) const;
};

// One committed seed: its aggregate-summary slots and rendered JSON element.
struct JournalEntry {
  int index = -1;
  std::vector<double> summary;
  std::string element;
};

class CampaignJournal {
 public:
  CampaignJournal() = default;
  ~CampaignJournal();
  CampaignJournal(const CampaignJournal&) = delete;
  CampaignJournal& operator=(const CampaignJournal&) = delete;

  // Starts a fresh journal at `path` (truncating any existing file) and
  // writes the identity header. False + *error on I/O failure. `sync` makes
  // every committed record durable with fdatasync (--journal-sync): a machine
  // crash then loses at most the record being written, not the page cache.
  bool Create(const std::string& path, CampaignIdentity identity, std::string* error,
              bool sync = false);

  // Resumes from an existing journal: parses it (see Load), verifies the
  // recorded identity matches `expect`, fills *completed with the committed
  // seeds, truncates any incomplete trailing record, and reopens the file
  // for appending. False + *error on parse/identity/I/O failure.
  bool OpenForResume(const std::string& path, CampaignIdentity expect,
                     std::map<int, JournalEntry>* completed, std::string* error,
                     bool sync = false);

  // Appends one committed seed and flushes (and, when the journal was opened
  // with sync, fdatasyncs). Thread-safe. False on I/O error.
  bool Append(const JournalEntry& entry);

  bool open() const;
  void Close();

  // Parses a journal file. Complete, digest-verified records land in
  // *completed and *valid_end receives the byte offset just past the last
  // complete record (the resume append point). A truncated trailing record
  // is tolerated (dropped); corruption — digest mismatch, malformed or
  // out-of-range fields, duplicate indices — fails the parse.
  static bool Load(const std::string& path, CampaignIdentity* identity,
                   std::map<int, JournalEntry>* completed, long* valid_end,
                   std::string* error);

 private:
  mutable Mutex mu_;  // mutable: open() is logically const
  std::FILE* file_ BR_GUARDED_BY(mu_) = nullptr;
  bool sync_ BR_GUARDED_BY(mu_) = false;
};

}  // namespace byterobust

#endif  // SRC_HARNESS_JOURNAL_H_
