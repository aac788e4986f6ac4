#include "reference.hh"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/checkpoint.hh"
#include "util/stats_json.hh"

namespace perfbench {

namespace {

const char *const kSchema = "perfbench-reference-v1";

} // namespace

std::string
digestOf(const std::string &bytes)
{
    return lva::hexU64(lva::fnv1a64(bytes));
}

Reference
Reference::collecting()
{
    Reference r;
    r.emit_ = true;
    return r;
}

Reference
Reference::load(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read reference " + path);
    std::stringstream text;
    text << in.rdbuf();
    const lva::JsonValue doc = lva::parseJson(text.str());
    if (doc.at("schema").asString() != kSchema)
        throw std::runtime_error(path + ": unsupported schema");
    Reference r;
    for (const auto &[key, value] : doc.at("digests").members)
        r.digests_[key] = value.asString();
    return r;
}

bool
Reference::check(const std::string &key, const std::string &bytes)
{
    const std::string digest = digestOf(bytes);
    if (emit_) {
        emitted_[key] = digest;
        return true;
    }
    const auto it = digests_.find(key);
    return it != digests_.end() && it->second == digest;
}

std::string
Reference::render(const std::map<std::string, std::string> &digests)
{
    std::string out = "{\n  \"schema\": \"" + std::string(kSchema) +
                      "\",\n  \"digests\": {";
    bool first = true;
    for (const auto &[key, value] : digests) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    " + lva::jsonQuote(key) + ": " +
               lva::jsonQuote(value);
    }
    return out + "\n  }\n}\n";
}

} // namespace perfbench
