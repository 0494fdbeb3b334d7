#include "trace/cbp_reader.hh"

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <vector>

namespace whisper
{

namespace
{

constexpr uint16_t kDefaultGap = 8;

/** A whole-token unsigned number in @p base (hex may carry 0x).
 * strtoull alone would accept a sign (negating the value) and
 * saturate an out-of-range value to 2^64 - 1. */
bool
parseUnsigned(const std::string &tok, int base, uint64_t *out)
{
    if (tok.empty() || tok[0] == '-' || tok[0] == '+')
        return false;
    char *end = nullptr;
    errno = 0;
    *out = std::strtoull(tok.c_str(), &end, base);
    return end != tok.c_str() && *end == '\0' && errno != ERANGE;
}

bool
parseDir(const std::string &tok, bool *out)
{
    if (tok == "1" || tok == "T" || tok == "t") {
        *out = true;
        return true;
    }
    if (tok == "0" || tok == "N" || tok == "n") {
        *out = false;
        return true;
    }
    return false;
}

bool
parseKind(const std::string &tok, BranchKind *out)
{
    if (tok.size() != 1)
        return false;
    switch (tok[0]) {
      case 'C': case 'c': *out = BranchKind::Conditional; return true;
      case 'J': case 'j':
      case 'U': case 'u': *out = BranchKind::Unconditional; return true;
      case 'L': case 'l': *out = BranchKind::Call; return true;
      case 'R': case 'r': *out = BranchKind::Return; return true;
      case 'I': case 'i': *out = BranchKind::Indirect; return true;
    }
    return false;
}

char
kindChar(BranchKind kind)
{
    switch (kind) {
      case BranchKind::Conditional: return 'C';
      case BranchKind::Unconditional: return 'J';
      case BranchKind::Call: return 'L';
      case BranchKind::Return: return 'R';
      case BranchKind::Indirect: return 'I';
    }
    return 'C';
}

enum class LineResult { Record, Skip, Error };

/** Parse one line; metadata comments update @p app / @p inputId. */
LineResult
parseCbpLine(const std::string &line, BranchRecord *rec,
             std::string *app, uint32_t *inputId, std::string *error)
{
    size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos)
        return LineResult::Skip;

    if (line[start] == '#') {
        std::string body = line.substr(start + 1);
        size_t b = body.find_first_not_of(" \t");
        if (b != std::string::npos) {
            body = body.substr(b);
            if (body.rfind("app=", 0) == 0) {
                std::string v = body.substr(4);
                size_t e = v.find_last_not_of(" \t\r");
                *app = e == std::string::npos ? std::string()
                                              : v.substr(0, e + 1);
            } else if (body.rfind("input=", 0) == 0) {
                std::string v = body.substr(6);
                v.erase(v.find_last_not_of(" \t\r") + 1);
                uint64_t id = 0;
                if (!parseUnsigned(v, 10, &id) || id > UINT32_MAX) {
                    *error = "bad input id '" + v + "'";
                    return LineResult::Error;
                }
                *inputId = static_cast<uint32_t>(id);
            }
        }
        return LineResult::Skip;
    }

    std::istringstream iss(line);
    std::vector<std::string> toks;
    std::string tok;
    while (iss >> tok)
        toks.push_back(tok);
    if (toks.size() < 2 || toks.size() > 5) {
        *error = "expected 'PC DIR [TARGET [KIND [GAP]]]', got " +
                 std::to_string(toks.size()) + " field(s)";
        return LineResult::Error;
    }

    BranchRecord r;
    if (!parseUnsigned(toks[0], 16, &r.pc)) {
        *error = "bad hex pc '" + toks[0] + "'";
        return LineResult::Error;
    }
    if (!parseDir(toks[1], &r.taken)) {
        *error = "bad direction '" + toks[1] + "' (1/0/T/N)";
        return LineResult::Error;
    }
    r.target = r.pc + 4;
    r.kind = BranchKind::Conditional;
    r.instGap = kDefaultGap;
    if (toks.size() >= 3 && !parseUnsigned(toks[2], 16, &r.target)) {
        *error = "bad hex target '" + toks[2] + "'";
        return LineResult::Error;
    }
    if (toks.size() >= 4 && !parseKind(toks[3], &r.kind)) {
        *error = "bad kind '" + toks[3] + "' (C/J/L/R/I)";
        return LineResult::Error;
    }
    if (toks.size() >= 5) {
        uint64_t gap = 0;
        if (!parseUnsigned(toks[4], 10, &gap) || gap > UINT16_MAX) {
            *error = "bad gap '" + toks[4] + "'";
            return LineResult::Error;
        }
        r.instGap = static_cast<uint16_t>(gap);
    }
    *rec = r;
    return LineResult::Record;
}

IoStatus
lineError(const std::string &path, uint64_t lineNo,
          const std::string &why)
{
    return IoStatus::corruptFile(path, "line " +
                                           std::to_string(lineNo) +
                                           ": " + why);
}

} // namespace

IoStatus
loadCbpTrace(const std::string &path, BranchTrace *out)
{
    CbpFileSource source(path);
    std::vector<BranchRecord> records;
    BranchRecord rec;
    while (source.next(rec))
        records.push_back(rec);
    if (!source.status().ok())
        return source.status();
    if (records.empty())
        return IoStatus::corruptFile(path, "no branch records");

    *out = BranchTrace(source.app(), source.inputId());
    for (const auto &r : records)
        out->append(r);
    return IoStatus::okStatus();
}

bool
saveCbpTrace(const BranchTrace &trace, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    bool ok =
        std::fprintf(f, "# whisper cbp-style branch trace\n") >= 0 &&
        std::fprintf(f, "# app=%s\n", trace.app().c_str()) >= 0 &&
        std::fprintf(f, "# input=%u\n", trace.inputId()) >= 0 &&
        std::fprintf(f, "# format: pc dir target kind gap\n") >= 0;
    for (const auto &rec : trace) {
        if (!ok)
            break;
        ok = std::fprintf(
                 f, "%llx %d %llx %c %u\n",
                 static_cast<unsigned long long>(rec.pc),
                 rec.taken ? 1 : 0,
                 static_cast<unsigned long long>(rec.target),
                 kindChar(rec.kind),
                 static_cast<unsigned>(rec.instGap)) >= 0;
    }
    if (std::fclose(f) != 0)
        ok = false;
    return ok;
}

CbpFileSource::CbpFileSource(const std::string &path)
    : path_(path), in_(path)
{
    if (!in_)
        status_ = IoStatus::missingFile(path);
}

bool
CbpFileSource::next(BranchRecord &rec)
{
    if (!status_.ok())
        return false;
    std::string line, error;
    while (std::getline(in_, line)) {
        ++lineNo_;
        if (in_.eof()) {
            // saveCbpTrace ends every line with '\n'; a last line
            // without one was cut short and may still parse.
            status_ = lineError(path_, lineNo_, "torn last line");
            return false;
        }
        switch (parseCbpLine(line, &rec, &app_, &inputId_, &error)) {
          case LineResult::Record:
            return true;
          case LineResult::Skip:
            break;
          case LineResult::Error:
            status_ = lineError(path_, lineNo_, error);
            return false;
        }
    }
    return false;
}

void
CbpFileSource::rewind()
{
    if (status_.corrupt())
        return; // a damaged file stays damaged
    in_.clear();
    in_.seekg(0);
    lineNo_ = 0;
    if (!in_)
        status_ = IoStatus::missingFile(path_);
}

} // namespace whisper
