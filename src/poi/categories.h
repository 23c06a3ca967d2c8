// Coarse POI category taxonomy over the fine-grained types.
//
// Real geo-information services organize POI types ("italian_restaurant",
// "noodle_shop") under coarse categories ("food"). Category-level
// aggregation is interesting for privacy: rare *types* drive location
// uniqueness, while *categories* are common everywhere — releasing the
// category histogram instead of the type histogram is a natural
// coarsening defense evaluated in `poibench --scenario
// ext_category_defense`.
#pragma once

#include <array>
#include <string_view>
#include <vector>

#include "poi/database.h"

namespace poiprivacy::poi {

/// The canonical coarse categories; kCategoryNames is index-aligned.
enum class Category : std::uint8_t {
  kFood,
  kShopping,
  kHealth,
  kEducation,
  kTransport,
  kLeisure,
  kLodging,
  kServices,
  kCulture,
  kNature,
};

inline constexpr std::array<std::string_view, 10> kCategoryNames{
    "food",     "shopping",  "health",   "education", "transport",
    "leisure",  "lodging",   "services", "culture",   "nature",
};

constexpr std::size_t kNumCategories = kCategoryNames.size();

/// Category of a type name: the segment between the last '/' that is
/// followed by "<category>_..." — e.g. "beijing/food_12" -> kFood.
/// Names without a recognized category hash deterministically onto one,
/// so every type always has a category.
Category category_of(std::string_view type_name);

/// Category per TypeId for a whole registry.
std::vector<Category> categorize(const PoiTypeRegistry& types);

/// Collapses a type frequency vector to a category histogram (length
/// kNumCategories).
FrequencyVector collapse(const FrequencyVector& type_freq,
                         const std::vector<Category>& mapping);

/// A category-level view of a database: same POIs and positions, but the
/// type of every POI is its category. Useful for running the attacks
/// against category-level releases.
PoiDatabase category_view(const PoiDatabase& db);

}  // namespace poiprivacy::poi
