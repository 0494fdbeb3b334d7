/**
 * @file
 * Append-only run histories: the committed BENCH_*.json files that
 * the benches and whisper_loadgen add one record to per run.
 */

#ifndef WHISPER_TOOLS_RUN_RECORD_HH
#define WHISPER_TOOLS_RUN_RECORD_HH

#include <cstdio>
#include <ctime>
#include <string>
#include <thread>

namespace whisper
{

/**
 * Append one run record to the bench history at @p path, a JSON file
 * laid out as
 *
 *   {
 *     "bench": "<bench>",
 *     "runs": [
 *       {...},
 *       {...}
 *     ]
 *   }
 *
 * @p fields is the body of the new record ("key": value pairs, one
 * per line, indented 6 spaces); the git revision (`-dirty` when the
 * tree has uncommitted changes), UTC date and core count go first. A
 * missing file starts a new history; a file in any other layout is
 * left untouched and false is returned.
 */
inline bool
appendRunRecord(const std::string &path, const std::string &bench,
                const std::string &fields)
{
    static const std::string kTail = "\n  ]\n}\n";
    std::string text;
    if (FILE *in = std::fopen(path.c_str(), "r")) {
        char buf[4096];
        size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0)
            text.append(buf, n);
        std::fclose(in);
    }
    bool fresh = text.empty();
    if (!fresh && (text.size() < kTail.size() ||
                   text.compare(text.size() - kTail.size(),
                                kTail.size(), kTail) != 0)) {
        return false;
    }

    std::string rev = "unknown";
    if (FILE *git = popen("git describe --always --dirty 2>/dev/null",
                          "r")) {
        char buf[64] = {};
        if (std::fgets(buf, sizeof(buf), git)) {
            rev = buf;
            rev.erase(rev.find_last_not_of("\n") + 1);
        }
        pclose(git);
    }
    char date[32];
    std::time_t now = std::time(nullptr);
    std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%SZ",
                  std::gmtime(&now));
    std::string record =
        "    {\n      \"git_rev\": \"" + rev + "\",\n" +
        "      \"date\": \"" + date + "\",\n" +
        "      \"cores\": " +
        std::to_string(std::thread::hardware_concurrency()) + ",\n" +
        fields + "\n    }";

    if (fresh)
        text = "{\n  \"bench\": \"" + bench + "\",\n  \"runs\": [\n" +
               record + kTail;
    else
        text.insert(text.size() - kTail.size(), ",\n" + record);
    FILE *out = std::fopen(path.c_str(), "w");
    if (!out)
        return false;
    bool ok = std::fwrite(text.data(), 1, text.size(), out) ==
              text.size();
    return std::fclose(out) == 0 && ok;
}

} // namespace whisper

#endif // WHISPER_TOOLS_RUN_RECORD_HH
