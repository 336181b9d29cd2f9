"""The world's 100 most populous cities — the paper's ground station set.

Paper §3.4 and §5 place ground stations at the 100 most populous cities and
study connections between all pairs.  This module embeds that dataset
(metropolitan-area population estimates circa 2020, WGS84 coordinates) so
the workload is reproducible offline.

Coordinates are city centers to ~0.01 degree; at LEO geometry scales the
resulting position error (~1 km) is far below link-length variation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..geo.coordinates import GeodeticPosition

__all__ = ["City", "top_cities", "CITY_RECORDS"]


@dataclass(frozen=True)
class City:
    """One city usable as a ground station site.

    Attributes:
        rank: Population rank, 1 = most populous.
        name: City name (unique within the dataset).
        position: Geodetic position at zero altitude.
        population: Metropolitan population estimate.
    """

    rank: int
    name: str
    position: GeodeticPosition
    population: int

    @property
    def latitude_deg(self) -> float:
        return self.position.latitude_deg

    @property
    def longitude_deg(self) -> float:
        return self.position.longitude_deg


#: (rank, name, latitude_deg, longitude_deg, population) records.
CITY_RECORDS: Tuple[Tuple[int, str, float, float, int], ...] = (
    (1, "Tokyo", 35.69, 139.69, 37_400_000),
    (2, "Delhi", 28.61, 77.21, 29_400_000),
    (3, "Shanghai", 31.23, 121.47, 26_300_000),
    (4, "Sao Paulo", -23.55, -46.63, 21_800_000),
    (5, "Mexico City", 19.43, -99.13, 21_600_000),
    (6, "Cairo", 30.04, 31.24, 20_500_000),
    (7, "Mumbai", 19.08, 72.88, 20_000_000),
    (8, "Beijing", 39.90, 116.41, 19_600_000),
    (9, "Dhaka", 23.81, 90.41, 19_600_000),
    (10, "Osaka", 34.69, 135.50, 19_300_000),
    (11, "New York", 40.71, -74.01, 18_800_000),
    (12, "Karachi", 24.86, 67.01, 15_400_000),
    (13, "Buenos Aires", -34.60, -58.38, 15_000_000),
    (14, "Chongqing", 29.56, 106.55, 14_800_000),
    (15, "Istanbul", 41.01, 28.98, 14_700_000),
    (16, "Kolkata", 22.57, 88.36, 14_700_000),
    (17, "Manila", 14.60, 120.98, 13_500_000),
    (18, "Lagos", 6.52, 3.38, 13_400_000),
    (19, "Rio de Janeiro", -22.91, -43.17, 13_300_000),
    (20, "Tianjin", 39.34, 117.36, 13_200_000),
    (21, "Kinshasa", -4.44, 15.27, 13_200_000),
    (22, "Guangzhou", 23.13, 113.26, 12_600_000),
    (23, "Los Angeles", 34.05, -118.24, 12_400_000),
    (24, "Moscow", 55.76, 37.62, 12_400_000),
    (25, "Shenzhen", 22.54, 114.06, 12_000_000),
    (26, "Lahore", 31.55, 74.34, 11_700_000),
    (27, "Bangalore", 12.97, 77.59, 11_400_000),
    (28, "Paris", 48.86, 2.35, 10_900_000),
    (29, "Bogota", 4.71, -74.07, 10_600_000),
    (30, "Jakarta", -6.21, 106.85, 10_500_000),
    (31, "Chennai", 13.08, 80.27, 10_500_000),
    (32, "Lima", -12.05, -77.04, 10_400_000),
    (33, "Bangkok", 13.76, 100.50, 10_200_000),
    (34, "Seoul", 37.57, 126.98, 9_960_000),
    (35, "Nagoya", 35.18, 136.91, 9_550_000),
    (36, "Hyderabad", 17.39, 78.49, 9_480_000),
    (37, "London", 51.51, -0.13, 9_050_000),
    (38, "Tehran", 35.69, 51.39, 8_900_000),
    (39, "Chicago", 41.88, -87.63, 8_860_000),
    (40, "Chengdu", 30.57, 104.07, 8_810_000),
    (41, "Nanjing", 32.06, 118.80, 8_250_000),
    (42, "Wuhan", 30.59, 114.31, 8_180_000),
    (43, "Ho Chi Minh City", 10.82, 106.63, 8_140_000),
    (44, "Luanda", -8.84, 13.23, 7_950_000),
    (45, "Ahmedabad", 23.02, 72.57, 7_680_000),
    (46, "Kuala Lumpur", 3.14, 101.69, 7_560_000),
    (47, "Xian", 34.34, 108.94, 7_440_000),
    (48, "Hong Kong", 22.32, 114.17, 7_430_000),
    (49, "Dongguan", 23.02, 113.75, 7_360_000),
    (50, "Hangzhou", 30.27, 120.16, 7_240_000),
    (51, "Foshan", 23.02, 113.12, 7_240_000),
    (52, "Shenyang", 41.81, 123.43, 7_220_000),
    (53, "Riyadh", 24.71, 46.68, 7_070_000),
    (54, "Baghdad", 33.31, 44.37, 6_970_000),
    (55, "Santiago", -33.45, -70.67, 6_770_000),
    (56, "Surat", 21.17, 72.83, 6_560_000),
    (57, "Madrid", 40.42, -3.70, 6_500_000),
    (58, "Suzhou", 31.30, 120.58, 6_340_000),
    (59, "Pune", 18.52, 73.86, 6_280_000),
    (60, "Harbin", 45.80, 126.53, 6_120_000),
    (61, "Houston", 29.76, -95.37, 6_120_000),
    (62, "Dallas", 32.78, -96.80, 6_100_000),
    (63, "Toronto", 43.65, -79.38, 6_080_000),
    (64, "Dar es Salaam", -6.79, 39.21, 6_050_000),
    (65, "Miami", 25.76, -80.19, 6_040_000),
    (66, "Belo Horizonte", -19.92, -43.94, 5_970_000),
    (67, "Singapore", 1.35, 103.82, 5_870_000),
    (68, "Philadelphia", 39.95, -75.17, 5_700_000),
    (69, "Atlanta", 33.75, -84.39, 5_570_000),
    (70, "Fukuoka", 33.59, 130.40, 5_550_000),
    (71, "Khartoum", 15.50, 32.56, 5_530_000),
    (72, "Barcelona", 41.39, 2.17, 5_490_000),
    (73, "Johannesburg", -26.20, 28.05, 5_490_000),
    (74, "Saint Petersburg", 59.93, 30.34, 5_380_000),
    (75, "Qingdao", 36.07, 120.38, 5_380_000),
    (76, "Dalian", 38.91, 121.61, 5_300_000),
    (77, "Washington", 38.91, -77.04, 5_210_000),
    (78, "Yangon", 16.87, 96.20, 5_160_000),
    (79, "Alexandria", 31.20, 29.92, 5_090_000),
    (80, "Jinan", 36.65, 117.12, 5_050_000),
    (81, "Guadalajara", 20.67, -103.35, 5_020_000),
    (82, "Zhengzhou", 34.75, 113.63, 4_940_000),
    (83, "Ankara", 39.93, 32.86, 4_920_000),
    (84, "Chittagong", 22.36, 91.78, 4_910_000),
    (85, "Melbourne", -37.81, 144.96, 4_870_000),
    (86, "Abidjan", 5.36, -4.01, 4_800_000),
    (87, "Sydney", -33.87, 151.21, 4_790_000),
    (88, "Monterrey", 25.69, -100.32, 4_710_000),
    (89, "Brasilia", -15.79, -47.88, 4_560_000),
    (90, "Nairobi", -1.29, 36.82, 4_390_000),
    (91, "Hanoi", 21.03, 105.85, 4_380_000),
    (92, "Boston", 42.36, -71.06, 4_310_000),
    (93, "Phoenix", 33.45, -112.07, 4_220_000),
    (94, "Montreal", 45.50, -73.57, 4_220_000),
    (95, "Porto Alegre", -30.03, -51.22, 4_090_000),
    (96, "Recife", -8.05, -34.88, 4_050_000),
    (97, "Fortaleza", -3.72, -38.54, 4_000_000),
    (98, "Accra", 5.60, -0.19, 4_000_000),
    (99, "Medellin", 6.25, -75.56, 3_930_000),
    (100, "Kano", 12.00, 8.52, 3_820_000),
)


_ALL_CITIES: List[City] = [
    City(rank=rank, name=name, position=GeodeticPosition(lat, lon, 0.0),
         population=population)
    for rank, name, lat, lon, population in CITY_RECORDS]


def top_cities(count: int = 100) -> List[City]:
    """The ``count`` most populous cities, by rank.

    Args:
        count: How many cities to return, between 1 and 100.
    """
    if not 1 <= count <= len(_ALL_CITIES):
        raise ValueError(
            f"count must be in [1, {len(_ALL_CITIES)}], got {count}")
    return list(_ALL_CITIES[:count])
