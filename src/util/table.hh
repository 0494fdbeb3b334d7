/**
 * @file
 * Fixed-width text table reporter.
 *
 * Every bench binary prints its figure/table through this class so
 * the output format stays uniform and diff-able against
 * EXPERIMENTS.md.
 */

#ifndef WHISPER_UTIL_TABLE_HH
#define WHISPER_UTIL_TABLE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace whisper
{

/** A simple left-header, right-aligned-numbers table printer. */
class TableReporter
{
  public:
    /** @param title printed above the table. */
    explicit TableReporter(std::string title);

    /** Set column headers (first column is the row label). */
    void setHeader(std::vector<std::string> header);

    /** Append a row of pre-formatted cells. */
    void addRow(std::vector<std::string> cells);

    /** Append a row with a label and numeric cells (fixed precision). */
    void addRow(const std::string &label, const std::vector<double> &vals,
                int precision = 2);

    /** Render to the stream (default std::cout). */
    void print(std::ostream &os) const;
    void print() const;

    static std::string formatDouble(double v, int precision = 2);

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace whisper

#endif // WHISPER_UTIL_TABLE_HH
