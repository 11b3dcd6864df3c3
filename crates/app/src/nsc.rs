//! Android Network Security Configuration (NSC) files.
//!
//! NSC is the declarative pinning channel introduced in Android 7 and the
//! *only* channel prior large-scale studies (Possemato et al., Oltrogge et
//! al.) could measure. The paper re-implements NSC detection as its
//! baseline technique (Table 3's "Configuration Files" column) and then
//! shows how much pinning lives elsewhere.
//!
//! This module models the subset of NSC the studies parse: `<domain-config>`
//! with `<domain includeSubdomains>`, `<pin-set>` with SHA-256 pins and
//! expiration, `<trust-anchors>`/`<certificates overridePins>`, including
//! the *misconfigurations* Possemato et al. observed (pinning `example.com`,
//! `overridePins="true"` neutering the pin set).

use crate::xml::{Element, XmlError};
use pinning_crypto::b64encode;
use pinning_pki::Certificate;

/// One `<pin>` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NscPin {
    /// Digest algorithm attribute (the platform only accepts `"SHA-256"`).
    pub digest: String,
    /// Base64 digest value.
    pub value_b64: String,
}

impl NscPin {
    /// Builds a pin entry for `cert`'s SPKI.
    pub fn for_cert(cert: &Certificate) -> Self {
        NscPin {
            digest: "SHA-256".to_string(),
            value_b64: b64encode(&cert.spki_sha256()),
        }
    }
}

/// One `<domain-config>` block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainConfig {
    /// `(name, includeSubdomains)` pairs.
    pub domains: Vec<(String, bool)>,
    /// Pins in the `<pin-set>`, empty when the block only tweaks anchors.
    pub pins: Vec<NscPin>,
    /// Optional `<pin-set expiration="...">` date string.
    pub pin_expiration: Option<String>,
    /// `<certificates overridePins="true">` inside `<trust-anchors>` — the
    /// classic misconfiguration that silently disables the pin set.
    pub override_pins: bool,
    /// Whether user-added CAs are trusted for these domains.
    pub trust_user_certs: bool,
}

impl DomainConfig {
    /// Whether the pin set is actually effective (non-empty and not
    /// overridden).
    fn pinning_effective(&self) -> bool {
        !self.pins.is_empty() && !self.override_pins
    }
}

/// A parsed/generated NSC file.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NetworkSecurityConfig {
    /// Domain-specific blocks.
    pub domain_configs: Vec<DomainConfig>,
}

impl NetworkSecurityConfig {
    /// Whether any block carries pins (what prior NSC studies counted,
    /// effective or not).
    pub fn declares_pins(&self) -> bool {
        self.domain_configs.iter().any(|d| !d.pins.is_empty())
    }

    /// Whether any block pins *effectively*.
    pub fn pins_effectively(&self) -> bool {
        self.domain_configs.iter().any(|d| d.pinning_effective())
    }

    /// Renders the XML document.
    pub fn to_xml(&self) -> String {
        let mut root = Element::new("network-security-config");
        for dc in &self.domain_configs {
            let mut el = Element::new("domain-config");
            for (name, inc) in &dc.domains {
                el = el.child(
                    Element::new("domain")
                        .attr("includeSubdomains", if *inc { "true" } else { "false" })
                        .text(name.clone()),
                );
            }
            if !dc.pins.is_empty() {
                let mut ps = Element::new("pin-set");
                if let Some(exp) = &dc.pin_expiration {
                    ps = ps.attr("expiration", exp.clone());
                }
                for pin in &dc.pins {
                    ps = ps.child(
                        Element::new("pin")
                            .attr("digest", pin.digest.clone())
                            .text(pin.value_b64.clone()),
                    );
                }
                el = el.child(ps);
            }
            if dc.override_pins || dc.trust_user_certs {
                let mut ta = Element::new("trust-anchors");
                let mut certs = Element::new("certificates").attr(
                    "src",
                    if dc.trust_user_certs {
                        "user"
                    } else {
                        "system"
                    },
                );
                if dc.override_pins {
                    certs = certs.attr("overridePins", "true");
                }
                ta = ta.child(certs);
                el = el.child(ta);
            }
            root = root.child(el);
        }
        root.to_document()
    }

    /// Parses an NSC XML document under the workspace-standard budget.
    pub fn from_xml(text: &str) -> Result<Self, XmlError> {
        Self::from_xml_with_budget(text, &pinning_pki::limits::Budget::STANDARD)
    }

    /// Parses an NSC XML document under an explicit hostile-input budget.
    pub fn from_xml_with_budget(
        text: &str,
        budget: &pinning_pki::limits::Budget,
    ) -> Result<Self, XmlError> {
        let root = crate::xml::parse_with_budget(text, budget)?;
        let mut out = NetworkSecurityConfig::default();
        for dc_el in root.find_all("domain-config") {
            let mut dc = DomainConfig {
                domains: Vec::new(),
                pins: Vec::new(),
                pin_expiration: None,
                override_pins: false,
                trust_user_certs: false,
            };
            for d in dc_el.find_all("domain") {
                let inc = d.get_attr("includeSubdomains") == Some("true");
                dc.domains.push((d.text_content(), inc));
            }
            if let Some(ps) = dc_el.find("pin-set") {
                dc.pin_expiration = ps.get_attr("expiration").map(str::to_string);
                for pin in ps.find_all("pin") {
                    dc.pins.push(NscPin {
                        digest: pin.get_attr("digest").unwrap_or("SHA-256").to_string(),
                        value_b64: pin.text_content(),
                    });
                }
            }
            if let Some(ta) = dc_el.find("trust-anchors") {
                for certs in ta.find_all("certificates") {
                    if certs.get_attr("overridePins") == Some("true") {
                        dc.override_pins = true;
                    }
                    if certs.get_attr("src") == Some("user") {
                        dc.trust_user_certs = true;
                    }
                }
            }
            out.domain_configs.push(dc);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinning_crypto::sig::KeyPair;
    use pinning_crypto::SplitMix64;
    use pinning_pki::authority::CertificateAuthority;
    use pinning_pki::name::DistinguishedName;
    use pinning_pki::time::{SimTime, Validity, YEAR};

    fn cert() -> Certificate {
        let mut rng = SplitMix64::new(0x115c);
        let mut root = CertificateAuthority::new_root(
            DistinguishedName::new("R", "Sim", "US"),
            &mut rng,
            SimTime(0),
        );
        let k = KeyPair::generate(&mut rng);
        root.issue_leaf(
            &["api.x.com".to_string()],
            "X",
            &k,
            Validity::starting(SimTime(0), YEAR),
        )
    }

    fn sample() -> NetworkSecurityConfig {
        NetworkSecurityConfig {
            domain_configs: vec![DomainConfig {
                domains: vec![("api.x.com".into(), true)],
                pins: vec![NscPin::for_cert(&cert())],
                pin_expiration: Some("2024-01-01".into()),
                override_pins: false,
                trust_user_certs: false,
            }],
        }
    }

    #[test]
    fn xml_roundtrip() {
        let nsc = sample();
        let xml = nsc.to_xml();
        let parsed = NetworkSecurityConfig::from_xml(&xml).unwrap();
        assert_eq!(parsed, nsc);
    }

    #[test]
    fn pin_value_is_44_char_base64() {
        let nsc = sample();
        assert_eq!(nsc.domain_configs[0].pins[0].value_b64.len(), 44);
        assert!(nsc.declares_pins());
        assert!(nsc.pins_effectively());
    }

    #[test]
    fn override_pins_neuters_pinning() {
        let mut nsc = sample();
        nsc.domain_configs[0].override_pins = true;
        assert!(nsc.declares_pins(), "pins still *declared*");
        assert!(!nsc.pins_effectively(), "but not effective");
        // Roundtrip preserves the misconfiguration.
        let parsed = NetworkSecurityConfig::from_xml(&nsc.to_xml()).unwrap();
        assert!(parsed.domain_configs[0].override_pins);
    }

    #[test]
    fn config_without_pins() {
        let nsc = NetworkSecurityConfig {
            domain_configs: vec![DomainConfig {
                domains: vec![("cleartext.example".into(), false)],
                pins: vec![],
                pin_expiration: None,
                override_pins: false,
                trust_user_certs: true,
            }],
        };
        assert!(!nsc.declares_pins());
        let parsed = NetworkSecurityConfig::from_xml(&nsc.to_xml()).unwrap();
        assert!(parsed.domain_configs[0].trust_user_certs);
    }

    #[test]
    fn parses_handwritten_example() {
        let xml = r#"<?xml version="1.0" encoding="utf-8"?>
<network-security-config>
    <domain-config>
        <domain includeSubdomains="true">example.com</domain>
        <pin-set expiration="2025-06-01">
            <pin digest="SHA-256">7HIpactkIAq2Y49orFOOQKurWxmmSFZhBCoQYcRhJ3Y=</pin>
            <pin digest="SHA-256">fwza0LRMXouZHRC8Ei+4PyuldPDcf3UKgO/04cDM1oE=</pin>
        </pin-set>
        <trust-anchors>
            <certificates src="system" overridePins="true" />
        </trust-anchors>
    </domain-config>
</network-security-config>"#;
        let nsc = NetworkSecurityConfig::from_xml(xml).unwrap();
        assert_eq!(nsc.domain_configs[0].pins.len(), 2);
        assert!(nsc.domain_configs[0].override_pins);
        assert_eq!(nsc.domain_configs[0].domains[0].0, "example.com");
    }
}
