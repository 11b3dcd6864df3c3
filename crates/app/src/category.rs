//! App store categories (the taxonomy behind Tables 1, 4 and 5).

use crate::platform::Platform;
use core::fmt;

/// A unified category taxonomy covering both stores.
///
/// The two stores use slightly different labels for the same concept
/// ("Tools" vs "Utilities", "Social" vs "Social Networking", "Food & Drink"
/// appears on both); [`Category::label_on`] renders the store-appropriate
/// name, which is what the dataset tables print.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Category {
    Games,
    Education,
    Tools,
    Music,
    Books,
    Business,
    Lifestyle,
    Entertainment,
    Travel,
    Personalization,
    Weather,
    Finance,
    Shopping,
    FoodAndDrink,
    Social,
    Productivity,
    Photography,
    Communication,
    Health,
    Sports,
    Navigation,
    Events,
    Dating,
    Comics,
    Automobile,
    News,
}

impl Category {
    /// Every category.
    pub const ALL: [Category; 26] = [
        Category::Games,
        Category::Education,
        Category::Tools,
        Category::Music,
        Category::Books,
        Category::Business,
        Category::Lifestyle,
        Category::Entertainment,
        Category::Travel,
        Category::Personalization,
        Category::Weather,
        Category::Finance,
        Category::Shopping,
        Category::FoodAndDrink,
        Category::Social,
        Category::Productivity,
        Category::Photography,
        Category::Communication,
        Category::Health,
        Category::Sports,
        Category::Navigation,
        Category::Events,
        Category::Dating,
        Category::Comics,
        Category::Automobile,
        Category::News,
    ];

    /// Store-specific display label.
    pub fn label_on(self, platform: Platform) -> &'static str {
        match (self, platform) {
            (Category::Tools, Platform::Android) => "Tools",
            (Category::Tools, Platform::Ios) => "Utilities",
            (Category::Social, Platform::Android) => "Social",
            (Category::Social, Platform::Ios) => "Social Networking",
            (Category::FoodAndDrink, _) => "Food & Drink",
            (Category::Health, Platform::Android) => "Health",
            (Category::Health, Platform::Ios) => "Health & Fitness",
            (Category::Photography, Platform::Android) => "Photography",
            (Category::Photography, Platform::Ios) => "Photo & Video",
            _ => self.base_label(),
        }
    }

    /// Platform-neutral label.
    fn base_label(self) -> &'static str {
        match self {
            Category::Games => "Games",
            Category::Education => "Education",
            Category::Tools => "Tools",
            Category::Music => "Music",
            Category::Books => "Books",
            Category::Business => "Business",
            Category::Lifestyle => "Lifestyle",
            Category::Entertainment => "Entertainment",
            Category::Travel => "Travel",
            Category::Personalization => "Personalization",
            Category::Weather => "Weather",
            Category::Finance => "Finance",
            Category::Shopping => "Shopping",
            Category::FoodAndDrink => "Food & Drink",
            Category::Social => "Social",
            Category::Productivity => "Productivity",
            Category::Photography => "Photography",
            Category::Communication => "Communication",
            Category::Health => "Health",
            Category::Sports => "Sports",
            Category::Navigation => "Navigation",
            Category::Events => "Events",
            Category::Dating => "Dating",
            Category::Comics => "Comics",
            Category::Automobile => "Automobile",
            Category::News => "News",
        }
    }

    /// Whether this is one of the data-sensitive categories the paper finds
    /// pinning concentrated in (finance, social, shopping, dating, health).
    pub fn is_data_sensitive(self) -> bool {
        matches!(
            self,
            Category::Finance
                | Category::Social
                | Category::Shopping
                | Category::Dating
                | Category::Health
        )
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.base_label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_exhaustive_and_unique() {
        use std::collections::HashSet;
        let set: HashSet<_> = Category::ALL.iter().collect();
        assert_eq!(set.len(), Category::ALL.len());
    }

    #[test]
    fn platform_labels_differ_where_expected() {
        assert_eq!(Category::Tools.label_on(Platform::Android), "Tools");
        assert_eq!(Category::Tools.label_on(Platform::Ios), "Utilities");
        assert_eq!(
            Category::Social.label_on(Platform::Ios),
            "Social Networking"
        );
        assert_eq!(Category::Games.label_on(Platform::Ios), "Games");
    }

    #[test]
    fn finance_is_sensitive_games_is_not() {
        assert!(Category::Finance.is_data_sensitive());
        assert!(!Category::Games.is_data_sensitive());
    }
}
