#include "exp/results.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "util/env.h"

namespace tb::exp {
namespace {

std::string csv_quote(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

/// Split one CSV line honoring RFC-4180 quoting.
std::vector<std::string> csv_split(const std::string& line) {
  std::vector<std::string> fields;
  std::string cur;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cur += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  fields.push_back(std::move(cur));
  return fields;
}

// --- value kinds ----------------------------------------------------------
// Each kind renders a value exactly once per surface — CSV field and
// json::Value — and parses the CSV field back strictly: parse() accepts
// exactly what csv() can emit and returns false on anything else.

/// Integers: decimal in CSV, a JSON number.
template <typename T>
struct Integer {
  static std::string csv(T v) { return std::to_string(v); }
  static json::Value json_value(T v) {
    return json::Value::number_v(static_cast<double>(v));
  }
  /// The field must be the std::to_string rendering of the value it parses
  /// to, which rejects blanks, signs on unsigned kinds, leading zeros,
  /// fractions, trailing bytes and overflow.
  static bool parse(const std::string& s, T& v) {
    if constexpr (std::is_signed_v<T>) {
      v = static_cast<T>(std::strtoll(s.c_str(), nullptr, 10));
    } else {
      v = static_cast<T>(std::strtoull(s.c_str(), nullptr, 10));
    }
    return std::to_string(v) == s;
  }
};

using Index = Integer<std::size_t>;
using Int = Integer<int>;
using Counter = Integer<long>;

/// The 64-bit cell seed: a JSON number is a double and cannot hold every
/// mix_seed value, so JSON carries it as a decimal string.
struct Seed : Integer<std::uint64_t> {
  static json::Value json_value(std::uint64_t v) {
    return json::Value::string_v(std::to_string(v));
  }
};

/// An int whose NA sentinel is -1 ("na" / null), since 0 is a real count.
struct NaInt {
  static std::string csv(int v) { return v < 0 ? "na" : std::to_string(v); }
  static json::Value json_value(int v) {
    return v < 0 ? json::Value::null() : json::Value::number_v(v);
  }
  static bool parse(const std::string& s, int& v) {
    if (s == "na") {
      v = -1;
      return true;
    }
    return Int::parse(s, v) && v >= 0;
  }
};

/// A double: %.17g in CSV (round-trips every finite value; NaN is "na",
/// infinite cut bounds are "inf"); json::dump writes NaN and infinities,
/// which JSON cannot spell, as null.
struct Real {
  static std::string csv(double v) {
    if (std::isnan(v)) return "na";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }
  static json::Value json_value(double v) { return json::Value::number_v(v); }
  static bool parse(const std::string& s, double& v) {
    if (s == "na") {
      v = std::numeric_limits<double>::quiet_NaN();
      return true;
    }
    // %.17g spells only digits, sign, point, exponent and "inf": this
    // excludes blanks, hex floats and "nan" before strtod can accept them.
    if (s.empty() || s.find_first_not_of("0123456789+-.eEinf") !=
                         std::string::npos) {
      return false;
    }
    char* end = nullptr;
    v = std::strtod(s.c_str(), &end);
    return end == s.c_str() + s.size();
  }
};

/// A label: RFC-4180 quoted in CSV only when it must be.
struct Text {
  static std::string csv(const std::string& s) { return csv_quote(s); }
  static json::Value json_value(const std::string& s) {
    return json::Value::string_v(s);
  }
  static bool parse(const std::string& s, std::string& v) {
    v = s;
    return true;
  }
};

/// A label that is empty when its column does not apply: null in JSON.
struct OptText : Text {
  static json::Value json_value(const std::string& s) {
    return s.empty() ? json::Value::null() : json::Value::string_v(s);
  }
};

// --- the column table -----------------------------------------------------

struct Column {
  const char* name;
  std::string (*csv)(const CellResult&);
  json::Value (*json_value)(const CellResult&);
  bool (*parse)(const std::string&, CellResult&);
};

template <typename Kind, auto Member>
constexpr Column column(const char* name) {
  return {name, [](const CellResult& r) { return Kind::csv(r.*Member); },
          [](const CellResult& r) { return Kind::json_value(r.*Member); },
          [](const std::string& s, CellResult& r) {
            return Kind::parse(s, r.*Member);
          }};
}

/// The one declaration of the record schema: column order, names and
/// kinds for CSV, the store and JSON alike.
constexpr Column kColumns[] = {
    column<Index, &CellResult::cell>("cell"),
    column<Text, &CellResult::topology>("topology"),
    column<Int, &CellResult::servers>("servers"),
    column<Int, &CellResult::switches>("switches"),
    column<Text, &CellResult::tm>("tm"),
    column<Seed, &CellResult::seed>("seed"),
    column<Text, &CellResult::solver>("solver"),
    column<Int, &CellResult::trials>("trials"),
    column<Real, &CellResult::throughput>("throughput"),
    column<Real, &CellResult::random_mean>("random_mean"),
    column<Real, &CellResult::random_ci95>("random_ci95"),
    column<Real, &CellResult::relative>("relative"),
    column<Real, &CellResult::relative_ci95>("relative_ci95"),
    column<Real, &CellResult::cut_bound>("cut_bound"),
    column<Real, &CellResult::cut_gap>("cut_gap"),
    column<OptText, &CellResult::cut_method>("cut_method"),
    column<OptText, &CellResult::scenario>("scenario"),
    column<NaInt, &CellResult::failed_links>("failed_links"),
    column<Real, &CellResult::throughput_drop>("throughput_drop"),
    column<NaInt, &CellResult::risk_group>("risk_group"),
    column<Real, &CellResult::tm_scale>("tm_scale"),
    column<NaInt, &CellResult::growth_step>("growth_step"),
    column<Counter, &CellResult::pivots>("pivots"),
    column<Counter, &CellResult::phases>("phases"),
    column<Counter, &CellResult::dijkstras>("dijkstras"),
    column<Counter, &CellResult::pushes>("pushes"),
    column<Counter, &CellResult::relabels>("relabels"),
    column<Counter, &CellResult::global_relabels>("global_relabels"),
    column<Int, &CellResult::warm>("warm"),
    column<Int, &CellResult::solver_threads>("solver_threads"),
};

}  // namespace

const CellResult& ResultSet::at(const std::string& topology,
                                const std::string& tm) const {
  for (const CellResult& r : rows_) {
    if (r.topology == topology && r.tm == tm) return r;
  }
  throw std::out_of_range("ResultSet::at: no cell (" + topology + ", " + tm +
                          ")");
}

const std::string& csv_header() {
  static const std::string header = [] {
    std::string h;
    for (std::size_t i = 0; i < std::size(kColumns); ++i) {
      if (i > 0) h += ',';
      h += kColumns[i].name;
    }
    return h;
  }();
  return header;
}

std::string csv_row(const CellResult& r) {
  std::string row;
  for (std::size_t i = 0; i < std::size(kColumns); ++i) {
    if (i > 0) row += ',';
    row += kColumns[i].csv(r);
  }
  return row;
}

CellResult cell_from_csv_row(const std::string& row) {
  // Reject unbalanced quoting up front: csv_split would otherwise read an
  // unterminated quote to end-of-string and mis-count fields confusingly.
  if (std::count(row.begin(), row.end(), '"') % 2 != 0) {
    throw std::invalid_argument("cell_from_csv_row: unterminated quote");
  }
  const std::vector<std::string> f = csv_split(row);
  if (f.size() != std::size(kColumns)) {
    throw std::invalid_argument("cell_from_csv_row: bad row arity (" +
                                std::to_string(f.size()) + " fields)");
  }
  CellResult r;
  for (std::size_t i = 0; i < f.size(); ++i) {
    if (!kColumns[i].parse(f[i], r)) {
      std::string what = "cell_from_csv_row: bad ";
      what += kColumns[i].name;
      what += " field \"";
      what += f[i];
      what += '"';
      throw std::invalid_argument(what);
    }
  }
  return r;
}

json::Value cell_json(const CellResult& r) {
  json::Value o = json::Value::object();
  for (const Column& c : kColumns) o.set(c.name, c.json_value(r));
  return o;
}

std::string ResultSet::to_csv() const {
  std::string out = csv_header();
  out += '\n';
  for (const CellResult& r : rows_) {
    out += csv_row(r);
    out += '\n';
  }
  return out;
}

std::string ResultSet::to_json() const {
  std::string out = "[\n";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    out += "  ";
    out += json::dump(cell_json(rows_[i]));
    out += i + 1 < rows_.size() ? ",\n" : "\n";
  }
  out += "]\n";
  return out;
}

ResultSet ResultSet::from_csv(const std::string& csv) {
  ResultSet rs;
  std::istringstream in(csv);
  std::string line;
  std::string record;
  bool saw_header = false;
  // A record spans physical lines while a quote is open (quoted fields may
  // legally contain newlines); quote parity decides, since escaped ""
  // contributes an even count.
  const auto quotes_balanced = [](const std::string& s) {
    return std::count(s.begin(), s.end(), '"') % 2 == 0;
  };
  while (std::getline(in, line)) {
    if (record.empty()) {
      if (line.empty() || line[0] == '#') continue;
      record = line;
    } else {
      record += '\n';
      record += line;
    }
    if (!quotes_balanced(record)) continue;
    if (!saw_header) {
      if (record != csv_header()) {
        throw std::invalid_argument("ResultSet::from_csv: unexpected header");
      }
      saw_header = true;
      record.clear();
      continue;
    }
    CellResult r;
    try {
      r = cell_from_csv_row(record);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(std::string("ResultSet::from_csv: ") +
                                  e.what());
    }
    record.clear();
    rs.add(std::move(r));
  }
  if (!record.empty()) {
    throw std::invalid_argument("ResultSet::from_csv: unterminated quote");
  }
  if (!saw_header) {
    throw std::invalid_argument("ResultSet::from_csv: no header line");
  }
  return rs;
}

void ResultSet::emit(std::ostream& os, const std::string& caption) const {
  os << "# " << caption << '\n';
  if (slice_) os << slice_header_line(*slice_) << '\n';
  os << to_csv() << '\n';
}

bool csv_mode() { return env::flag_knob("TOPOBENCH_CSV", false); }

}  // namespace tb::exp
