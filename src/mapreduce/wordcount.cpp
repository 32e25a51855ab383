#include "mapreduce/wordcount.hpp"

#include <memory>

#include "mp/pool.hpp"
#include "support/strings.hpp"
#include "support/temp_file.hpp"

namespace dionea::mapreduce {

WordCounts count_words(const std::string& text) {
  WordCounts counts;
  std::string lowered = strings::to_lower(text);
  for (const std::string& word : strings::split_whitespace(lowered)) {
    if (!strings::is_alpha_word(word)) continue;
    if (is_reserved_word(word)) continue;
    ++counts[word];
  }
  return counts;
}

void merge_counts(WordCounts* total, const WordCounts& addend) {
  for (const auto& [word, count] : addend) (*total)[word] += count;
}

Result<WordCounts> count_corpus(const Corpus& corpus) {
  WordCounts total;
  for (const std::string& path : corpus.files()) {
    DIONEA_ASSIGN_OR_RETURN(std::string text, read_file(path));
    merge_counts(&total, count_words(text));
  }
  return total;
}

Result<WordCounts> pool_count_corpus(const Corpus& corpus, int workers) {
  using vm::Value;
  auto worker_fn = [](const Value& task) -> Value {
    auto text = read_file(task.as_str());
    Value out = Value::new_map();
    if (!text.is_ok()) return out;  // vanished file: empty partial
    for (const auto& [word, count] : count_words(text.value())) {
      out.as_map()->items[word] = Value(count);
    }
    return out;
  };
  DIONEA_ASSIGN_OR_RETURN(mp::Pool pool, mp::Pool::create(workers, worker_fn));
  std::vector<Value> tasks;
  tasks.reserve(corpus.files().size());
  for (const std::string& path : corpus.files()) {
    tasks.push_back(Value::str(path));
  }
  DIONEA_ASSIGN_OR_RETURN(std::vector<Value> partials, pool.map(tasks));
  DIONEA_RETURN_IF_ERROR(pool.shutdown());

  WordCounts total;
  for (const Value& partial : partials) {
    for (const auto& [word, count] : partial.as_map()->items) {
      total[word] += count.as_int();
    }
  }
  return total;
}

CountsDigest digest(const WordCounts& counts) {
  CountsDigest out;
  out.fnv = 1469598103934665603ULL;
  auto mix = [&out](const std::string& text) {
    for (char c : text) {
      out.fnv ^= static_cast<unsigned char>(c);
      out.fnv *= 1099511628211ULL;
    }
  };
  for (const auto& [word, count] : counts) {
    out.unique += 1;
    out.total += count;
    mix(word);
    mix(":" + std::to_string(count));
  }
  return out;
}

namespace {

// The reserved-word map literal shared by both program variants.
std::string reserved_map_literal() {
  std::string out = "{";
  bool first = true;
  for (const std::string& word : reserved_words()) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + word + "\": true";
  }
  return out + "}";
}

// Map + local-reduce shared by both program variants. `reserved` is a
// global so forked workers inherit it.
constexpr const char* kCountFileFn = R"(
fn count_file(path, counts)
  text = lower(read_file(path))
  for w in words(text)
    if is_alpha(w) and not contains(reserved, w)
      counts[w] = get(counts, w, 0) + 1
    end
  end
  return counts
end
)";

}  // namespace

std::string wordcount_program(const std::string& root, int workers) {
  std::string program;
  program += "reserved = " + reserved_map_literal() + "\n";
  program += kCountFileFn;
  program += strings::format(R"(
fn worker_main(tasks, partials)
  counts = {}
  while true
    path = ipc_pop(tasks)
    if path == nil
      break
    end
    count_file(path, counts)
  end
  ipc_push(partials, counts)
  return nil
end

nworkers = %d
tasks = ipc_queue()
partials = ipc_queue()
pids = []
w = 0
while w < nworkers
  pid = fork()
  if pid == 0
    worker_main(tasks, partials)
    exit(0)
  end
  push(pids, pid)
  w = w + 1
end

files = walk_files("%s")
for f in files
  ipc_push(tasks, f)
end
w = 0
while w < nworkers
  ipc_push(tasks, nil)
  w = w + 1
end

total = {}
got = 0
while got < nworkers
  part = ipc_pop(partials)
  for k in part
    total[k] = get(total, k, 0) + part[k]
  end
  got = got + 1
end
for p in pids
  waitpid(p)
end
tot = 0
for k in total
  tot = tot + total[k]
end
puts("unique=" + to_s(len(total)) + " total=" + to_s(tot))
)",
                             workers, root.c_str());
  return program;
}

std::string wordcount_program_serial(const std::string& root) {
  std::string program;
  program += "reserved = " + reserved_map_literal() + "\n";
  program += kCountFileFn;
  program += strings::format(R"(
total = {}
for f in walk_files("%s")
  count_file(f, total)
end
tot = 0
for k in total
  tot = tot + total[k]
end
puts("unique=" + to_s(len(total)) + " total=" + to_s(tot))
)",
                             root.c_str());
  return program;
}

}  // namespace dionea::mapreduce
